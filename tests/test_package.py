"""The package's public names: functions and classes only, each resolving."""

import types

import gpsf

# names deleted as twins of other paths or as serializers outside the CLI
DELETED = ["tridiag_entries", "TridiagSym", "chi_zero", "tensor_rule", "rule_to_csv",
           "rule_to_json", "expansion_to_json", "mode_to_json", "mode_from_json"]


def test_all_holds_no_module():
    assert not [name for name in gpsf.__all__ if isinstance(getattr(gpsf, name), types.ModuleType)]


def test_every_entry_resolves():
    assert gpsf.__all__ and all(hasattr(gpsf, name) for name in gpsf.__all__)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from gpsf import *", namespace)
    assert "prolate" not in namespace and "kernels" not in namespace
    assert set(namespace) - {"__builtins__"} == set(gpsf.__all__)


def test_deleted_names_are_gone():
    modules = [gpsf.ballquad, gpsf.interp, gpsf.prolate, gpsf.quadrature]
    assert not [name for name in DELETED if name in gpsf.__all__ or hasattr(gpsf, name)
                or any(hasattr(m, name) for m in modules)]
    assert not [name for name in ("phi", "phi_deriv") if hasattr(gpsf.ZernikeCoeffs, name)]
