"""Every per-trial public function rejects a bad input with one pinned
exception type and message, and accepts what it accepted before.

The table was recorded from the code before the per-trial kernels, so a
cheaper check that lets a bad input through, rejects a good one, or words
its error differently fails here.  The best responses have since rejected
non-finite and negative entries and an empty pair, and f1 and the noise
generators anything but a nonempty vector, where these inputs once reached
the arithmetic.  OTHER also pins the input checks of the other public
functions that a trial or a command calls.
NumPy's warnings are raised as errors inside the test, so an input that
gets past every check into the arithmetic and warns fails here too.
"""

import warnings

import numpy as np
import pytest

from trep.bootstrap import honest_majority_check
from trep.decoder import count_inversions, decode, f2_check, noisy_belief_two_point
from trep.equilibrium import (
    DegenerateBelief,
    best_response_closed_form,
    best_response_to_mass,
    epsilon_prime_bound,
    measure_epsilon_prime,
)
from trep.game import expected_utilities, f1
from trep.pagerank import clique_chain, stationary
from trep.repgraph import Config, RepGraph, validate
from trep.rng import substream

nan, inf = np.nan, np.inf
OK = np.array([0.5, 0.4, 0.3])
BAD = {
    "nan": [0.5, nan, 0.3],
    "nan-then-negative": [nan, -0.2, 0.3],
    "negative-then-nan": [-0.2, nan, 0.3],
    "inf": [0.5, inf, 0.3],
    "-inf": [0.5, -inf, 0.3],
    "both-infs": [inf, -inf, 0.3],  # whose sum warns
    "empty": [],
    "matrix": [[0.5, 0.3]],
    "zero-mass": [0.0, 0.0, 0.0],
}

NORMALIZE = "cannot normalize a vector without positive, finite mass"
NOT_A_VECTOR = "cannot normalize anything but a nonempty vector"
NEGATIVE = "cannot normalize a vector with negative entries"
BR_SHAPE = "trust and opponent mass must be nonempty vectors of equal length"
BR_SIGN = "trust and opponent mass must be finite and nonnegative"
CF_SHAPE = "trust and belief must be nonempty vectors of equal length"
CF_SIGN = "trust and belief must be finite and nonnegative"
DISJOINT = "trust and belief share no supported server"
TRUST_RANGE = "trust values must lie in [0, 1]"
BELIEF_MASS = "belief must be nonnegative with positive mass"
BELIEF_SHAPE = "belief and trust must have the same shape"
MARGIN = "trust values within 0.01 of 0 or 1 cannot take symmetric noise"
PLAYERS = "need at least 2 players, got 1"
TRUST_VECTOR = "trust must be a nonempty vector"

# (function, role of the bad vector) -> outcome per BAD key: a message (a
# ValueError), an (exception type, message) pair, or None (returns).
EXPECTED = {
    ("f1", "vector"): {
        "nan": NORMALIZE, "nan-then-negative": NEGATIVE, "negative-then-nan": NEGATIVE,
        "inf": NORMALIZE, "-inf": NEGATIVE, "both-infs": NEGATIVE, "empty": NOT_A_VECTOR,
        "matrix": NOT_A_VECTOR, "zero-mass": NORMALIZE,
    },
    ("best_response_to_mass", "trust"): {
        "nan": BR_SIGN, "nan-then-negative": BR_SIGN, "negative-then-nan": BR_SIGN,
        "inf": BR_SIGN, "-inf": BR_SIGN, "both-infs": BR_SIGN, "empty": BR_SHAPE, "matrix": BR_SHAPE,
        "zero-mass": None,
    },
    ("best_response_to_mass", "mass"): {
        "nan": BR_SIGN, "nan-then-negative": BR_SIGN, "negative-then-nan": BR_SIGN,
        "inf": BR_SIGN, "-inf": BR_SIGN, "both-infs": BR_SIGN, "empty": BR_SHAPE, "matrix": BR_SHAPE,
        "zero-mass": None,
    },
    ("best_response_closed_form", "trust"): {
        "nan": CF_SIGN, "nan-then-negative": CF_SIGN, "negative-then-nan": CF_SIGN,
        "inf": CF_SIGN, "-inf": CF_SIGN, "both-infs": CF_SIGN, "empty": CF_SHAPE,
        "matrix": CF_SHAPE, "zero-mass": (DegenerateBelief, DISJOINT),
    },
    ("best_response_closed_form", "belief"): {
        "nan": CF_SIGN, "nan-then-negative": CF_SIGN, "negative-then-nan": CF_SIGN,
        "inf": CF_SIGN, "-inf": CF_SIGN, "both-infs": CF_SIGN, "empty": CF_SHAPE,
        "matrix": CF_SHAPE, "zero-mass": (DegenerateBelief, DISJOINT),
    },
    ("measure_epsilon_prime", "trust"): {
        "nan": TRUST_RANGE, "nan-then-negative": TRUST_RANGE, "negative-then-nan": TRUST_RANGE,
        "inf": TRUST_RANGE, "-inf": TRUST_RANGE, "both-infs": TRUST_RANGE,
        "empty": TRUST_VECTOR, "matrix": TRUST_VECTOR, "zero-mass": "trust has no positive entry",
    },
    ("measure_epsilon_prime", "belief"): {
        "nan": BELIEF_MASS, "nan-then-negative": BELIEF_MASS, "negative-then-nan": BELIEF_MASS,
        "inf": NORMALIZE, "-inf": BELIEF_MASS, "both-infs": BELIEF_MASS, "empty": BELIEF_SHAPE,
        "matrix": BELIEF_SHAPE,
        "zero-mass": BELIEF_MASS,
    },
    ("noisy_belief_two_point", "trust"): {
        "nan": MARGIN, "nan-then-negative": MARGIN, "negative-then-nan": MARGIN, "inf": MARGIN,
        "-inf": MARGIN, "both-infs": MARGIN, "empty": TRUST_VECTOR, "matrix": TRUST_VECTOR,
        "zero-mass": MARGIN,
    },
}

CALLS = {
    ("f1", "vector"): lambda v: f1(v),
    ("best_response_to_mass", "trust"): lambda v: best_response_to_mass(v, OK),
    ("best_response_to_mass", "mass"): lambda v: best_response_to_mass(OK, v),
    ("best_response_closed_form", "trust"): lambda v: best_response_closed_form(v, OK, 3),
    ("best_response_closed_form", "belief"): lambda v: best_response_closed_form(OK, v, 3),
    ("measure_epsilon_prime", "trust"): lambda v: measure_epsilon_prime(v, OK, 3),
    ("measure_epsilon_prime", "belief"): lambda v: measure_epsilon_prime(OK, v, 3),
    ("noisy_belief_two_point", "trust"): lambda v: noisy_belief_two_point(v, 0.01, substream(0)),
}

# Calls that are not one bad vector: wrong shapes, n < 2, a bad epsilon, and
# the checks of the other public functions.
OTHER = {
    "best_response_to_mass/unequal-lengths": (lambda: best_response_to_mass(OK, OK[:2]), BR_SHAPE),
    "best_response_to_mass/both-empty": (lambda: best_response_to_mass([], []), BR_SHAPE),
    "best_response_closed_form/both-empty": (lambda: best_response_closed_form([], [], 3), CF_SHAPE),
    "best_response_closed_form/n1": (lambda: best_response_closed_form(OK, OK, 1), PLAYERS),
    "best_response_closed_form/disjoint-support": (
        lambda: best_response_closed_form([0.5, 0, 0], [0, 0.5, 0.2], 3),
        (DegenerateBelief, DISJOINT),
    ),
    "measure_epsilon_prime/n1": (lambda: measure_epsilon_prime(OK, OK, 1), PLAYERS),
    "measure_epsilon_prime/unequal-lengths": (
        lambda: measure_epsilon_prime(OK, OK[:2], 3), BELIEF_SHAPE,
    ),
    "noisy_belief_two_point/nan-epsilon": (
        lambda: noisy_belief_two_point(OK, nan, substream(0)), "epsilon must be nonnegative",
    ),
    "noisy_belief_two_point/inf-epsilon": (
        lambda: noisy_belief_two_point(OK, inf, substream(0)),
        "trust values within inf of 0 or 1 cannot take symmetric noise",
    ),
    "noisy_belief_two_point/-inf-epsilon": (
        lambda: noisy_belief_two_point(OK, -inf, substream(0)), "epsilon must be nonnegative",
    ),
    "count_inversions/unequal-lengths": (
        lambda: count_inversions(OK, OK[:2]), "rho and trust must be vectors of equal length",
    ),
    "f2_check/no-trials": (lambda: f2_check(OK, 0.01, 0.0, 0.05, trials=0), "need at least one trial"),
    "f2_check/n1": (lambda: f2_check(OK, 0.01, 0.0, 0.05, trials=1, n=1), PLAYERS),
    "epsilon_prime_bound/n1": (lambda: epsilon_prime_bound(3, 1, 0.01), PLAYERS),
    "expected_utilities/pot-shape": (  # a profile of n = 2 users and m = 2 servers
        lambda: expected_utilities(np.full((2, 4), 0.25), OK, Config()),
        "trust has shape (3,), expected (2,)",
    ),
    "clique_chain/one-entry": (
        lambda: clique_chain([0.5]), "ratings must be a vector of at least two entries",
    ),
    "clique_chain/no-positive-entry": (
        lambda: clique_chain([0.0, 0.0]), "ratings must be nonnegative with a positive entry",
    ),
    # NaN and inf pass the two checks above; the chain came out NaN
    "clique_chain/nan": (lambda: clique_chain([nan, 0.5]), "ratings must be finite"),
    "clique_chain/inf": (lambda: clique_chain([inf, 0.5]), "ratings must be finite"),
    "stationary/not-square": (
        lambda: stationary(np.full((2, 3), 1 / 3), Config()),
        "transition matrix must be square, got shape (2, 3)",
    ),
    "stationary/negative-entry": (
        lambda: stationary(np.array([[1.5, -0.5], [0.5, 0.5]]), Config()),
        "transition matrix has negative entries",
    ),
    "stationary/row-sum": (
        lambda: stationary(np.array([[0.5, 0.4], [0.5, 0.5]]), Config()),
        "transition matrix rows must sum to 1",
    ),
    "honest_majority_check/empty-committee": (
        lambda: honest_majority_check([], [1, 0]), "committee is empty",
    ),
    "substream/negative-component": (
        lambda: substream(0, "trial", -1), "stream path components must be non-negative, got -1",
    ),
}

# Profiles with one bad first row (n = 2, m = 1), through validate() and the
# profile-graph decode path, which joins validate's messages.
PROFILE_ROWS = {
    "nan": ([0.5, nan, 0.5], "row 1 sums to nan, expected 1"),
    "nan-then-negative": ([nan, -0.5, 1.5], "row 1 column 1: negative weight nan"),
    "negative-then-nan": ([-0.5, nan, 1.5], "row 1 column 2: negative weight nan"),
    "inf": ([inf, 0.0, 0.0], "row 1 sums to inf, expected 1"),
    "-inf": ([-inf, 1.0, 0.0], "row 1 column 1: negative weight -inf"),
    "zero-mass": ([0.0, 0.0, 0.0], "row 1 is all zeros: every user must endorse someone"),
    "drift": ([0.5, 0.4, 0.0], "row 1 sums to 0.9, expected 1"),
}
PROFILES = {
    "n1": (np.array([[0.5, 0.5]]), "n must be at least 2, got 1"),
    "vector": (np.array([0.5, 0.5]), "profile must be a matrix"),
    "no-server-column": (np.eye(2), "profile shape (2, 2) leaves no server columns"),
    "empty": (np.zeros((0, 0)), "profile shape (0, 0) leaves no server columns"),
}


def check(call, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            call()
            return
        kind, message = (ValueError, expected) if isinstance(expected, str) else expected
        with pytest.raises(Exception) as info:
            call()
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize(
    "function, role, key",
    [(f, r, k) for (f, r), outcomes in EXPECTED.items() for k in outcomes],
    ids=lambda x: str(x),
)
def test_bad_vector_outcome_is_pinned(function, role, key):
    check(lambda: CALLS[function, role](BAD[key]), EXPECTED[function, role][key])


@pytest.mark.parametrize("label", sorted(OTHER))
def test_bad_call_outcome_is_pinned(label):
    check(*OTHER[label])


@pytest.mark.parametrize("key", sorted(PROFILE_ROWS))
def test_bad_profile_row_message_is_pinned(key):
    row, message = PROFILE_ROWS[key]
    profile = np.array([row, [0.2, 0.3, 0.5]])
    assert validate(RepGraph(n=2, m=1, edges=profile)) == [message]
    check(lambda: decode(profile), message)


@pytest.mark.parametrize("key", sorted(PROFILES))
def test_bad_profile_shape_message_is_pinned(key):
    check(lambda: decode(PROFILES[key][0]), PROFILES[key][1])
