import pytest

from fractions import Fraction

from wfts.dsl import serialize
from wfts.features import Var
from wfts.generators import minepump_lite, taxi
from wfts.model import expand_lengths


class TestTaxi:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 11])
    def test_counts(self, n):
        w = taxi(n)
        assert len(w.feature_model.features) == n + 2
        assert len(w.feature_model.products) == 2 ** (n + 2)
        assert len(w.states) == 6 + 2 * n
        assert len(w.transitions) == 11 + 9 * n

    @pytest.mark.parametrize("n", range(12))
    def test_expanded_state_counts(self, n):
        # The base model carries 6 length-expansion states, each license 6
        # more, so expansion grows 6+2n states to 12+8n.  (The published
        # measurements for the original tooling count differently; these
        # are this model's own golden numbers.)
        assert len(expand_lengths(taxi(n)).states) == 12 + 8 * n

    def test_base_is_the_eight_state_example(self, taxi1):
        assert len(taxi1.states) == 8
        assert len(taxi1.feature_model.products) == 8
        assert taxi1.initial == ("AP",)

    def test_dotted_transitions_are_license_guarded(self, taxi1):
        lic = Var("L1")
        fm = taxi1.feature_model
        for t in taxi1.transitions:
            touches_ext = "Pe1" in (t.source, t.target) or "Re1" in (t.source, t.target)
            needs_license = fm.mask(t.guard) & ~fm.mask(lic) == 0
            assert touches_ext == needs_license

    def test_weights_and_lengths_of_the_base_service(self, taxi1):
        table = {(t.source, t.target): (t.weight, t.length) for t in taxi1.transitions}
        assert table[("P1", "AR")] == (40, 3)
        assert table[("AP", "R1")] == (50, 3)
        assert table[("P2", "AR")] == (35, 2)
        assert table[("AP", "R2")] == (45, 2)
        assert table[("Pe1", "AR")] == (50, 4)
        assert table[("AP", "Re1")] == (60, 4)
        assert table[("AR", "AP")] == (-5, 1)
        assert table[("R1", "P1")] == (-2, 1)
        assert table[("R2", "P2")] == (-2, 1)
        assert table[("Re1", "Pe1")] == (-2, 1)

    def test_negative_license_count_rejected(self):
        with pytest.raises(ValueError):
            taxi(-1)


class TestGrantRequest:
    def test_shape(self, grantreq):
        assert len(grantreq.states) == 4
        assert len(grantreq.transitions) == 7
        assert grantreq.initial == ("s0",)
        assert len(grantreq.feature_model.products) == 4

    def test_self_loop_guarded_by_g(self, grantreq):
        loop = next(t for t in grantreq.transitions if t.source == t.target)
        assert loop.source == "s2"
        assert loop.guard == Var("G")
        assert loop.weight == -1

    def test_serve_transition(self, grantreq):
        serve = next(t for t in grantreq.transitions if t.action == "serve")
        assert (serve.source, serve.target, serve.weight) == ("s3", "s0", 0)

    def test_request_edge_declared_before_grant_edge(self, grantreq):
        # The symbolic search depends on this order; it is pinned.
        order = [t.action for t in grantreq.transitions if t.source == "s0"]
        assert order == ["request", "grant"]


class TestMinepump:
    def test_four_products(self, minepump):
        assert len(minepump.feature_model.products) == 4
        assert set(minepump.feature_model.features) == {"C", "M"}

    def test_deterministic_serialization(self, minepump):
        assert serialize(minepump) == serialize(minepump_lite())

    def test_has_multi_length_transitions(self, minepump):
        assert any(t.length > 1 for t in minepump.transitions)

    def test_every_product_has_a_defined_limit_average(self, minepump):
        from wfts.analysis import analyze_family

        report = analyze_family(expand_lengths(minepump), "max")
        assert all(o.value is not None for o in report.outcomes)

    def test_exact_weights(self, minepump):
        assert all(isinstance(t.weight, Fraction) for t in minepump.transitions)
