"""Walk through a dictionary-guided decode of a legal-domain sentence.

A token-classification speller read "人民监查员依法审查案件" and, being a
general-domain model, kept the misspelled "监查员" as its top choice at
every position (the right characters sit in second place with much lower
scores). A user dictionary containing the institution name is enough to
flip the decode.

Run:  python3 demos/01_lattice_decode.py
"""
from udspell import DecodeConfig, UserDictionary, decode, make_lattice
from udspell.errors import diff_runs

SENTENCE = "人民监查员依法审查案件"

# second-choice candidates at the three error positions
SECOND = {2: ("检", -2.0), 3: ("察", -1.5), 4: ("院", -2.5)}


def build_lattice():
    positions = []
    for j, ch in enumerate(SENTENCE):
        row = [(ch, -0.1 if j in SECOND else -0.01)]
        if j in SECOND:
            row.append(SECOND[j])
        positions.append(row)
    return make_lattice("demo", SENTENCE, positions)


def show(label, path):
    print(f"{label:24} {path.tokens}")
    print(f"{'':24} raw={path.raw_score:+.2f} dict={path.dict_score} total={path.total:+.2f}")
    for s, e in diff_runs(SENTENCE, path.tokens):
        for i in range(s, e):
            print(f"{'':24} position {i}: {SENTENCE[i]} -> {path.tokens[i]}")
    print()


def main():
    lat = build_lattice()
    print(f"input: {SENTENCE}\n")

    show("no dictionary", decode(lat, UserDictionary(())))

    dic = UserDictionary({"人民检察院", "审查案件"})
    show("with user dictionary", decode(lat, dic))

    # eta trades raw lattice score against dictionary coverage; at 0 the
    # dictionary is ignored entirely
    for eta in (0.0, 1.0, 4.0):
        path = decode(lat, dic, DecodeConfig(eta=eta))
        print(f"eta={eta:<4} -> {path.tokens}  (total {path.total:+.2f})")


if __name__ == "__main__":
    main()
