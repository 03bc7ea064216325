import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from arlab.core import Generator  # noqa: E402
from arlab.dims import (  # noqa: E402
    atdim_realized,
    check_domain,
    restrict_base,
    restrict_e2e,
    vc_dimension,
)
from arlab.errors import HorizonExceeded  # noqa: E402

# Test-only generators and checks, imported by the test modules with
# `from conftest import ...`.


@dataclass(frozen=True)
class ConstantGenerator(Generator):
    """Emits the same bit at every input."""

    bit: str
    horizon: int

    def step(self, x: str) -> str:
        return self.bit


def full_generation_tree(T: int) -> frozenset[str]:
    """Every continuation of a prompt up to depth T, as root-relative paths:
    all bit strings of length <= T, '' being the root."""
    if T < 0:
        raise ValueError("T must be >= 0")
    return frozenset(
        "".join(p) for t in range(T + 1) for p in itertools.product("01", repeat=t)
    )


def apply_and_append(f: Generator, x: str) -> str:
    """One autoregressive step: x -> x + f(x)."""
    if len(x) >= f.horizon:
        raise HorizonExceeded(f"|x|={len(x)} >= horizon={f.horizon}")
    return x + f.step(x)


def arl_bound_check(cls, domain, T: int, atdim=None, vc=None) -> bool:
    """Joshi et al.'s log-T bound: vc(e2e restriction) <= 20 * ATdim * VC *
    log2(T) when T >= 20 * ATdim * VC; below that threshold the check is
    vacuously true.

    The restricted VC is a lower bound on the true one, so a pass is
    necessary-not-sufficient evidence; only a violation would be meaningful.
    """
    domain = check_domain(domain)
    if vc is None:
        vc = vc_dimension(restrict_base(cls, domain))
    if atdim is None:
        atdim = atdim_realized(cls, domain, T)
    threshold = 20 * atdim * vc
    if T < threshold:
        return True
    lhs = vc_dimension(restrict_e2e(cls, domain, T))
    return lhs <= threshold * math.log2(T) if T >= 2 else lhs == 0
