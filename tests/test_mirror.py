"""Every runner commutes with edge reversal.

Reversing every edge and inverting c mirrors the problem: rho(S, T) on g
is rho(T, S) on the reverse, and the reverse's ratio test |S'|/|T'| >= 1/c
with (S', T') = (T, S) reads |S|/|T| <= c, so it peels the mirrored side,
except at a tie |S|/|T| = c. A guess whose reduced denominator exceeds n
ties with no pair. The code is not symmetric (only the side of a pair that
is not V is gathered, finishes read by-source rows, the peel compacts one
side), so these runs check those paths against each other with no
reference implementation.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dirdense.mpc as mpc
from dirdense.graph import DirectedGraph
from dirdense.mpc import MpcConfig, mpc_nearlinear_run, mpc_superlinear_run
from dirdense.peeling import baseline_peel
from dirdense.streaming import (EdgeStream, _shuffled_edges, multi_pass_run, sample_params,
                                single_pass_run)
from tests.support import multigraphs_with_ratio

_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@st.composite
def mirror_cases(draw):
    """A ``multigraphs_with_ratio`` graph with each edge repeated 1 to 40
    times, so that its edges may outnumber the sample budget n * xi, and a
    guess c whose reduced denominator is a prime above n, so that no
    |S|/|T| equals c."""
    g, _ = draw(multigraphs_with_ratio())
    copies = draw(st.integers(1, 40))
    g = DirectedGraph.from_arrays(g.n, np.tile(g.src, copies), np.tile(g.dst, copies))
    den = draw(st.sampled_from([p for p in _PRIMES if g.n < p <= 4 * g.n + 50]))
    num = draw(st.integers(1, den * (g.n + 1)).filter(lambda k: k % den))
    return g, Fraction(num, den)


def _mirrored(result):
    pair, rho, ledger = result
    return sorted(pair.T), sorted(pair.S), rho, ledger.rounds, ledger.peak_edges


def _plain(result):
    pair, rho, ledger = result
    return sorted(pair.S), sorted(pair.T), rho, ledger.rounds, ledger.peak_edges


@settings(max_examples=200, deadline=None)
@given(mirror_cases(), st.sampled_from([0.1, 0.2, 0.5]),
       st.sampled_from([1 / 3000, 1 / 300, 1 / 30, 1.0]), st.integers(0, 2**32))
def test_each_runner_returns_the_mirrored_pair_on_the_reversed_graph(case, eps, f, seed):
    g, c = case
    rev = DirectedGraph.from_arrays(g.n, g.dst, g.src)
    params = sample_params(g.n, eps, f)

    def both(run, edges=(g.src, g.dst)):
        """``run(graph, guess, order, rng)`` on g with c and the order
        ``edges``, and on the reverse with 1/c and the reversed order,
        each with an rng of the same seed."""
        return [run(graph, guess, order, np.random.default_rng(seed))
                for graph, guess, order in ((g, c, edges), (rev, 1 / c, edges[::-1]))]

    runs = {"baseline": both(lambda graph, guess, order, rng: baseline_peel(graph, guess, eps))}
    for name, edges in (("given", (g.src, g.dst)), ("shuffled", _shuffled_edges(g, seed))):
        for label, runner in (("multi-pass", multi_pass_run), ("single-pass", single_pass_run)):
            runs[label, name] = both(lambda graph, guess, order, rng, runner=runner: runner(
                EdgeStream(graph.n, *order), graph.n, guess, params, rng=rng), edges)
    for runner, cfg in ((mpc_superlinear_run, MpcConfig("superlinear", mu=0.1)),
                        (mpc_nearlinear_run, MpcConfig("nearlinear", polylog_budget=1.0))):
        runs[cfg.regime, "given"] = both(lambda graph, guess, order, rng, runner=runner, cfg=cfg:
                                         runner(graph, guess, params, cfg, rng=rng, pool=order))
        # with pool=None each run draws a lazy order from its rng, placed a
        # slot at first: its realization depends on the seed and m alone,
        # so the reverse's order is the mirror of g's
        with mock.patch.object(mpc, "_FIRST_CHUNK", 1):
            runs[cfg.regime, "lazy"] = both(lambda graph, guess, order, rng, runner=runner,
                                            cfg=cfg: runner(graph, guess, params, cfg, rng=rng))
    for key, (plain, reversed_) in runs.items():
        assert _plain(plain) == _mirrored(reversed_), key
