"""Combine recognizer outputs by alignment and weighted voting.

Three mock systems transcribe the same utterance with different
mistakes. Folding them into a word transition network and voting per
slot recovers the majority reading; the alpha knob trades vote counts
against confidence scores, and a fixed null confidence of 0.5 decides
whether a word nobody else saw survives.
"""

import farfield as ff


def main():
    systems = [
        ["the", "cat", "sat", "on", "a", "mat"],
        ["the", "cat", "sat", "an", "the", "mat"],
        ["a", "cat", "sat", "on", "the", "mat"],
    ]
    fused = ff.rover(systems)
    print("count voting:", " ".join(fused))

    # insertions appear as null arcs: a word only one system heard must
    # beat the empty alternative to make it into the output
    with_insertion = [
        ["move", "the", "big", "box"],
        ["move", "the", "box"],
        ["move", "the", "box"],
    ]
    print("insertion outvoted:", " ".join(ff.rover(with_insertion)))

    # confidence scores flip a 2-1 count vote when alpha leans on them
    scored = [
        [("yes", 0.9)],
        [("no", 0.2)],
        [("no", 0.3)],
    ]
    for alpha in (1.0, 0.5, 0.0):
        fused = ff.rover(scored, alpha=alpha)
        print(f"alpha={alpha:3.1f}: {' '.join(fused)}")

    # "output nothing" stands at confidence 0.5; a word only one system
    # heard survives a confidence vote only when it scores above that
    for conf in (0.3, 0.8):
        minority = [["ok", ("then", conf)], ["ok"], ["ok"]]
        fused = ff.rover(minority, alpha=0.0)
        print(f"lone word at {conf}: {' '.join(fused)}")


if __name__ == "__main__":
    main()
