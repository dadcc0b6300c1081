"""Analysis declarations: Param validation and what the table derives."""

import pytest

from repro.cli import build_parser
from repro.errors import ProtocolError
from repro.serve.analyses import ANALYSIS_SPECS
from repro.serve.resilience import EXPENSIVE_ANALYSES
from repro.serve.spec import MAX_SWEEP_CELLS, REQUIRED, AnalysisSpec, Param, cap_grid


REQUIRED_VALUES = {
    "workload": "memcached", "configuration": "NoDG", "technique": "sleep-l"
}


def spec_with(*params, check=None):
    return AnalysisSpec(
        name="probe", params=params, build=lambda p: ([], list), check=check
    )


class TestParam:
    def test_required_param_must_be_given(self):
        with pytest.raises(ProtocolError, match="'name' is required"):
            Param("name", str).normalize({})

    def test_callable_default_is_called_per_request(self):
        param = Param("rows", list, default=lambda: ["a"])
        first = param.normalize({})
        first.append("b")
        assert param.normalize({}) == ["a"]

    def test_null_admitted_only_when_the_default_is_none(self):
        assert Param("faults", str, default=None).normalize({"faults": None}) is None
        with pytest.raises(ProtocolError, match="'years' must be an integer"):
            Param("years", int, default=1, low=1, high=2).normalize({"years": None})

    def test_null_list_with_choices_means_every_choice(self):
        param = Param("names", list, default=None, choices=lambda: ("a", "b"))
        assert param.normalize({"names": None}) == ["a", "b"]
        assert param.normalize({}) == ["a", "b"]

    def test_choices_and_checks_apply_to_each_item(self):
        param = Param("names", list, choices=lambda: ("a", "b"))
        with pytest.raises(ProtocolError, match="unknown names 'c'"):
            param.normalize({"names": ["a", "c"]})

        def refuse_x(value):
            if value == "x":
                raise ProtocolError("no x")

        checked = Param("names", list, check=refuse_x)
        assert checked.normalize({"names": ["y"]}) == ["y"]
        with pytest.raises(ProtocolError, match="no x"):
            checked.normalize({"names": ["y", "x"]})

    @pytest.mark.parametrize("value", [[], "a", [1]])
    def test_malformed_lists_rejected(self, value):
        with pytest.raises(ProtocolError, match="'names' must be"):
            Param("names", list).normalize({"names": value})

    def test_numbers(self):
        ints = Param("n", int, low=1, high=3)
        assert ints.normalize({"n": 2}) == 2
        for bad in (0, 4, 2.0, True, "2"):
            with pytest.raises(ProtocolError, match="'n' must"):
                ints.normalize({"n": bad})
        positive = Param("x", float)
        assert positive.normalize({"x": 2}) == 2.0
        assert isinstance(positive.normalize({"x": 2}), float)
        for bad in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ProtocolError, match="positive finite"):
                positive.normalize({"x": bad})
        float_list = Param("xs", list, item=float)
        assert float_list.normalize({"xs": [1, 2.5]}) == [1.0, 2.5]

    def test_object_params_round_trip_through_canonical_json(self):
        param = Param("payload", object, default=None)
        assert param.normalize({"payload": (1, float("inf"))}) == [1, "inf"]
        with pytest.raises(ProtocolError, match="JSON-able"):
            param.normalize({"payload": {1, 2}})


class TestAnalysisSpec:
    def test_unknown_keys_rejected_with_the_allowed_list(self):
        spec = spec_with(Param("a", int, default=1, low=0, high=9))
        with pytest.raises(ProtocolError, match=r"allowed: \['a'\]"):
            spec.normalize({"b": 1})

    def test_check_sees_normalised_params_and_may_fill_them(self):
        def fill(params):
            params["b"] = params["a"] * 2

        spec = spec_with(
            Param("a", int, default=1, low=0, high=9),
            Param("b", int, default=None),
            check=fill,
        )
        assert spec.normalize({"a": 3}) == {"a": 3, "b": 6}

    def test_cap_grid(self):
        cap_grid("probe", MAX_SWEEP_CELLS, 1)
        with pytest.raises(ProtocolError, match="probe grid too large"):
            cap_grid("probe", MAX_SWEEP_CELLS, 2)


class TestDerivedFromTheTable:
    def test_every_spec_is_keyed_by_its_name(self):
        assert all(name == spec.name for name, spec in ANALYSIS_SPECS.items())

    def test_expensive_analyses_come_from_the_specs(self):
        assert EXPENSIVE_ANALYSES == {
            "sweep", "policy_frontier", "fleet_frontier"
        }

    def test_every_command_is_a_subcommand_with_a_renderer(self):
        commands = {
            spec.command: spec
            for spec in ANALYSIS_SPECS.values()
            if spec.command is not None
        }
        assert set(commands) == {
            "availability", "rank", "sweep", "whatif", "policy", "fleet"
        }
        parser = build_parser()
        for command, spec in commands.items():
            assert spec.render is not None
            argv = [command] + [
                arg
                for p in spec.params
                if p.default is REQUIRED
                for arg in (p.flags[0], REQUIRED_VALUES[p.name])
            ]
            args = vars(parser.parse_args(argv))
            assert args["analysis"] == spec.name
            assert {p.name for p in spec.params} | {"json", "jobs"} <= set(args)

    def test_every_default_normalises(self):
        for spec in ANALYSIS_SPECS.values():
            required = {
                p.name: REQUIRED_VALUES[p.name]
                for p in spec.params
                if p.default is REQUIRED
            }
            assert set(spec.normalize(required)) == {p.name for p in spec.params}
