"""Rank certificates for elliptic curves y^2 = x^3 - n x attached to
integers with two representations as a sum of two fourth powers.

The package finds double representations n = p^4 + q^4 = r^4 + s^4, builds
the four rational points they induce, measures their independence through
canonical heights, runs the explicit square-class descent on re-checkable
rational points, and assembles everything into a serializable certificate with
unconditional and parity-conditional rank bounds.

The root exports the certificate pipeline and the exceptions it raises;
the layer functions are imported from their modules (biquadrank.arith,
.biquadrate, .curve, .heights, .descent, .parity, .certificate, .reference).
"""

from ._version import VERSION as __version__
from .arith import EffortExceeded
from .biquadrate import NotEqual, PropertyViolation, ZeroBase, euler_quadruple, search_double_representations
from .heights import PrecisionUnreachable
from .parity import OutOfDomain
from .certificate import (
    CertificateInvalid,
    NoRepresentation,
    RankCertificate,
    analyze,
    parse_certificate,
    reverify,
    to_json_line,
)
from .reference import run_claims

__all__ = [
    "__version__",
    "analyze", "reverify", "parse_certificate", "to_json_line", "RankCertificate",
    "search_double_representations", "euler_quadruple", "run_claims",
    "CertificateInvalid", "NoRepresentation", "EffortExceeded", "OutOfDomain",
    "PrecisionUnreachable", "PropertyViolation", "NotEqual", "ZeroBase",
]
