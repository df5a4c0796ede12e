"""Hand-written answers for the `vkp` commands the kernel workload runs on
the committed scripts in proofs/.

Each check output is the declarations of one file in order, with the
formula each was declared at.  The traces are leftmost-outermost:
`hop_applied` unfolds `hop_demo`, contracts the outer beta redex, then the
one inside the hop main premise, then the hop itself on an injection.
"""

CHECK = {
    "proofs/ipc.vkp": (0, """\
identity : OK (p -> p)
swap_pair : OK (p /\\ q -> q /\\ p)
swap_case : OK (p \\/ q -> q \\/ p)
triple_negation : OK (~~~p -> ~p)
beta_demo : OK (q -> q)
"""),
    "proofs/visser.vkp": (0, """\
visser_inj : OK ((B -> B) -> B -> B)
visser_apply : OK (((B -> B) -> A1 \\/ A2) -> B -> B)
"""),
    "proofs/harrop.vkp": (0, """\
harrop_principle : OK ((~B -> A1 \\/ A2) -> (~B -> A1) \\/ (~B -> A2))
hop_demo : OK ((~B -> ~B \\/ A2) -> (~B -> ~B) \\/ (~B -> A2))
hop_applied : OK ((~B -> ~B) \\/ (~B -> A2))
"""),
}

# (argv, exit code, stdout)
COMMANDS = [
    (["check", "--calculus", "IPC", "proofs/harrop.vkp"], 1, """\
harrop_principle : error at line 6, column 1: hop is not part of calculus IPC
hop_demo : error at line 11, column 1: hop is not part of calculus IPC
hop_applied : error at line 15, column 1: hop is not part of calculus IPC
"""),
    (["normalize", "proofs/ipc.vkp", "beta_demo", "--trace", "--json"], 0, """\
{
  "normalForm": "fun (x : q) => x",
  "steps": [
    {
      "path": [],
      "rule": "Beta",
      "before": "(fun (f : q -> q) => f) (fun (x : q) => x)",
      "after": "fun (x : q) => x"
    }
  ]
}
"""),
    (["normalize", "proofs/harrop.vkp", "hop_applied", "--trace", "--json"], 0, """\
{
  "normalForm": "inj1[~B -> A2] (fun (x : ~B) => x)",
  "steps": [
    {
      "path": [],
      "rule": "Beta",
      "before": "(fun (w : ~B -> ~B \\\\/ A2) => hop (x : ~B). w x of { y => inj1[~B -> A2] y | y => inj2[~B -> ~B] y }) (fun (n : ~B) => inj1[A2] n)",
      "after": "hop (x : ~B). (fun (n : ~B) => inj1[A2] n) x of { y => inj1[~B -> A2] y | y => inj2[~B -> ~B] y }"
    },
    {
      "path": [
        0
      ],
      "rule": "Beta",
      "before": "hop (x : ~B). (fun (n : ~B) => inj1[A2] n) x of { y => inj1[~B -> A2] y | y => inj2[~B -> ~B] y }",
      "after": "hop (x : ~B). inj1[A2] x of { y => inj1[~B -> A2] y | y => inj2[~B -> ~B] y }"
    },
    {
      "path": [],
      "rule": "Harrop-inj",
      "before": "hop (x : ~B). inj1[A2] x of { y => inj1[~B -> A2] y | y => inj2[~B -> ~B] y }",
      "after": "inj1[~B -> A2] (fun (x : ~B) => x)"
    }
  ]
}
"""),
    (["normalize", "proofs/harrop.vkp", "hop_applied", "--strategy", "weakhead", "--trace"], 0, """\
Beta at root
Beta at 0
Harrop-inj at root
inj1[~B -> A2] (fun (x : ~B) => x)
"""),
    (["normalize", "proofs/visser.vkp", "visser_inj", "--strategy", "evalV"], 0, """\
fun (x1 : B -> B) => x1
"""),
    (["normalize", "proofs/visser.vkp", "visser_apply", "--strategy", "evalV", "--trace"], 0, """\
(structural evaluation: no step trace)
fun (x1 : (B -> B) -> A1 \\/ A2) => fun (b : B) => b
"""),
    (["normalize", "proofs/visser.vkp", "visser_apply", "--trace", "--json"], 0, """\
{
  "normalForm": "fun (x1 : (B -> B) -> A1 \\\\/ A2) => fun (b : B) => b",
  "steps": [
    {
      "path": [],
      "rule": "Visser-app",
      "before": "visser (x1 : (B -> B) -> A1 \\\\/ A2). x1 (fun (b : B) => b) of { y => fun (h : (B -> B) -> A1 \\\\/ A2) => fun (b : B) => b | y => fun (h : (B -> B) -> A1 \\\\/ A2) => fun (b : B) => b | z => z }",
      "after": "fun (x1 : (B -> B) -> A1 \\\\/ A2) => fun (b : B) => b"
    }
  ]
}
"""),
    (["extract", "proofs/harrop.vkp", "hop_applied"], 0, """\
Left: fun (x : ~B) => x
"""),
]

# `vkp prove` on formulas declared in proofs/: (formula, provable).  The
# answer is checked by its certificate, not by its text: the printed
# witness must check at the formula, the printed model must refute it.
PROVE = [
    ("(~B -> A1 \\/ A2) -> (~B -> A1) \\/ (~B -> A2)", False),  # harrop_principle
    ("p \\/ q -> q \\/ p", True),  # swap_case
]
