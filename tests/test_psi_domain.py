"""A psi undefined on part of the real line is refused by name.

``from_F_contraction`` samples psi on [-10, 10] and iterates it, and the
phi it returns evaluates psi at ln(t).  Where psi is undefined there (a
ValueError, as math.log raises below zero), the call raises
DomainRestricted naming psi's description and the point, not a bare
``ValueError: math domain error``.
"""

import math

import pytest

from gphi.contraction import from_F_contraction
from gphi.errors import DomainRestricted
from gphi.gauges import LN, PHI_GRID, ExpPsiLnPhi, RealForm, certify_phi, phi_eval, shift_form

# u - 1, defined only from -25 on: the grid [-10, 10] is inside, the
# iterates from 0.5 leave it at -25.5, above the iteration floor of -60
SHIFT_ABOVE = RealForm("shift-above(-25)", lambda u: u - 1.0 + 0.0 * math.sqrt(u + 25.0))


def test_adapter_names_psi_and_the_grid_point():
    with pytest.raises(DomainRestricted, match=r"^psi ln is undefined at -10\.0$") as err:
        from_F_contraction(LN, LN)
    assert err.value.witness == {"psi": "ln", "u": -10.0, "t": None}


def test_adapter_names_the_iterate_that_leaves_the_domain():
    with pytest.raises(DomainRestricted,
                       match=r"^psi shift-above\(-25\) is undefined at -25\.5$"):
        from_F_contraction(LN, SHIFT_ABOVE)


def test_certify_phi_names_psi_and_the_log_of_the_grid_point():
    u = math.log(0.01)
    with pytest.raises(DomainRestricted) as err:
        certify_phi(ExpPsiLnPhi(LN), PHI_GRID)
    assert str(err.value) == f"psi ln is undefined at ln(0.01) = {u!r}"
    assert err.value.witness == {"psi": "ln", "u": u, "t": 0.01}


def test_psi_defined_everywhere_is_unchanged():
    G, phi = from_F_contraction(LN, shift_form(1.0))
    assert phi.psi.json_form == {"shift": 1.0}
    assert phi_eval(phi, 2.0) == math.exp(math.log(2.0) - 1.0)
    assert certify_phi(phi, PHI_GRID).verdict == "member"
