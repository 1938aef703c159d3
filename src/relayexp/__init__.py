"""Error-exponent bounds for discrete memoryless relay channels."""

__version__ = "0.1.0"

from .prob_core import CondDist, Dist
from .relay_model import (CfInput, PdfInput, RelayChannelSpec, cf_aux_channels,
                          cutset_bound, pdf_virtual_channels, sato_channel)
from .pdf_exponents import (ExponentEval, PdfSweep, df_input,
                            pdf_dual_exponent, pdf_primal_exponent, pdf_sweep)
from .cf_exponents import CfRates, cf_G1, cf_G2, cf_overall_witness
from .haroutunian_upper import (UpperBoundResult, ecs_objective, ecs_upper,
                                ecs_upper_sweep)
from .types_toolkit import (CondTypeN, TypeN, check_joint_typicality,
                            check_lemma1, enum_types, joint_typicality_batch,
                            lemma1_batch, vshell_size)
