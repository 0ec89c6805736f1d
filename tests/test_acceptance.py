"""The acceptance criteria, each held by the checks of ``colorblocks.verify``.

The assertions live only in ``verify.ALL_CHECKS``; a criterion here names the
checks that hold it.  ``tests/test_cli.py::TestVerify::test_check`` runs every
check within its runtime cap, and ``colorblocks verify --suite full`` prints
one PASS line per check.
"""

from colorblocks import verify

test_criterion_1_tree_theorem = verify.check_tree_theorem_many
test_criterion_3_cycle_theorem = verify.check_cycle_theorem
test_criterion_4_complete_graph_theorem = verify.check_complete_theorem
test_criterion_5_bipartite_theorem = verify.check_bipartite_expectation
test_criterion_10_property_suite = verify.check_distribution_properties_full


def test_criterion_2_binary_tree_lemma():
    verify.check_pbt_lemma()
    verify.check_pbt_lemma_full()


def test_criterion_6_triangle_prism():
    verify.check_engine_against_bruteforce_full()
    verify.check_fixture_series_vs_engine_full()
    verify.check_triangle_prism_expectation()


def test_criterion_7_larger_complete_slices():
    verify.check_km_system_small()
    verify.check_fixture_series_vs_engine_full()
    verify.check_k4_prism_expectation()
    verify.check_color_classes()


def test_criterion_8_general_expectation_theorem():
    verify.check_general_prism_expectation()
    verify.check_general_prism_expectation_full()


def test_criterion_9_star_product():
    verify.check_fixture_series_vs_engine_small()
    verify.check_engine_against_bruteforce_full()
    verify.check_star_system_solution_full()
    verify.check_star_expectation_full()
    verify.check_star_profile_count()
