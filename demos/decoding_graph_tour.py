"""A close look at grammar-constrained decoding on a toy problem.

Builds hand-sized unit models, writes a tiny grammar, composes the
decoding graph, and decodes short observation sequences: grammar
versus unconstrained, then an observation crafted so that a beam of
one discards the only path that can finish the sentence.

Run:
    python3 demos/decoding_graph_tour.py
"""

import numpy as np

from actionseg.data import UnitLexicon, frame_labels
from actionseg.decoder import decode
from actionseg.errors import BeamPrunedError
from actionseg.gmm import Gmm
from actionseg.grammar import Grammar, compose, unconstrained_graph
from actionseg.hmm import UnitHmm


def flat_unit(unit_id, means, self_loop=0.6):
    """Left-to-right unit with one unit-variance Gaussian per state."""
    n = len(means)
    obs = [
        Gmm(weights=np.ones(1), means=np.array([[m]]), variances=np.ones((1, 1)))
        for m in means
    ]
    return UnitHmm(
        unit_id=unit_id,
        log_self=np.full(n, np.log(self_loop)),
        log_next=np.full(n, np.log(1.0 - self_loop)),
        obs=obs,
    )


def main():
    lexicon = UnitLexicon.from_names(("SIL", "reach", "grasp"))
    hmms = {
        0: flat_unit(0, [0.0]),
        1: flat_unit(1, [2.0, 4.0]),
        2: flat_unit(2, [6.0]),
    }
    grammar = Grammar(lexicon, {"toy": ((0, 1, 2, 0), (0, 1, 0))})

    graph = compose(grammar, hmms)
    print(f"grammar graph: {len(graph.nodes)} nodes "
          f"(the shared SIL-reach prefix is stored once)")
    free = unconstrained_graph(hmms)
    print(f"unconstrained graph: {len(free.nodes)} nodes, any unit order")

    # frames that sweep through the reach states and back to silence
    obs = np.array([0.0, 2.0, 4.1, 5.9, 0.1])[:, None]
    for name, g in (("grammar", graph), ("unconstrained", free)):
        res = decode(g, obs)
        labels = [lexicon.name_of(u) for u in frame_labels(res.segmentation, len(obs))]
        units = [lexicon.name_of(u) for u in res.transcript.units]
        print(f"{name:>13}: lp={res.log_prob:.3f} frames={labels} units={units}")

    print("segments:", [(s, e, lexicon.name_of(u))
                        for u, s, e in decode(graph, obs).segmentation.segments])

    # a decoy: every frame sits on the reach means, but the single legal
    # sentence must still pass through grasp before the final silence
    decoy_lex = UnitLexicon.from_names(("SIL", "reach", "grasp"))
    decoy_hmms = {
        0: flat_unit(0, [0.0]),
        1: flat_unit(1, [0.0, 0.0]),
        2: flat_unit(2, [9.0, 9.0]),
    }
    decoy = compose(Grammar(decoy_lex, {"toy": ((0, 1, 2, 0),)}), decoy_hmms)
    easy = np.zeros((8, 1))
    res = decode(decoy, easy)
    print("full search still finds the mandatory grasp:",
          [decoy_lex.name_of(u) for u in res.transcript.units])
    try:
        decode(decoy, easy, beam=1)
    except BeamPrunedError as err:
        print(f"beam=1 keeps only the decoy and dies: {err}")


if __name__ == "__main__":
    main()
