"""Seeded generator for the benchmark's generated inputs.

It writes plain files only, the same kinds a user hands to corebist:

* ``cu_plan.json``: a BIST plan for the shipped ``ldpc_like_cu.bench``.
  ALFSR x^20+x^3+1 seeded from the workload seed, a modular binding of the
  45 inputs, a 44->16 XOR cascade into a 16-bit MISR, no golden signatures.
* ``seq_core.bench`` and ``seq_core.plan.json``: random logic in the style
  of ``tools/gen_fixtures.py`` (two- and three-input gates plus NOT/BUF, the
  last gates sweeping up unread nets) with the first outputs fed back
  through DFFs, and a plan that drives it.

The same seed always gives byte-identical files. Usage:

    python3 perfbench/gen_inputs.py {cu-plan,seq-core} --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

ALFSR_POLY = "x^20+x^3+1"
MISR_POLY = "x^16+x^12+x^3+x+1"
KINDS2 = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]

CU_PATTERNS = 64
SEQ_SHAPE = {"inputs": 24, "outputs": 24, "gates": 130, "flops": 16,
             "patterns": 48}


def _alfsr_seed(rng):
    return rng.randrange(1, 1 << 20)


def plan_dict(block, width, out_width, seed, patterns):
    """Plan JSON in corebist's schema: modular binding, one MISR."""
    return {
        "schema_version": 1,
        "alfsr": {"poly": ALFSR_POLY, "seed": f"{seed:#x}"},
        "counter_width": 12,
        "pattern_count": patterns,
        "bindings": [{"block": block, "width": width,
                      "alfsr_slice": {str(b): b % 20 for b in range(width)}}],
        "misrs": [{"block": block, "poly": MISR_POLY,
                   "cascade": {"in": out_width, "out": 16}}],
    }


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def cu_plan(seed, out_dir):
    rng = random.Random(f"cu-plan:{seed}")
    d = plan_dict("CONTROL_UNIT", 45, 44, _alfsr_seed(rng), CU_PATTERNS)
    return _write(os.path.join(out_dir, "cu_plan.json"),
                  json.dumps(d, indent=2, sort_keys=True) + "\n")


def seq_bench(rng, n_in, n_out, n_gates, n_flops):
    """Random sequential core; outputs o0..o{n_flops-1} feed flops q*."""
    ins = [f"s_i{k}" for k in range(n_in)]
    qs = [f"s_q{k}" for k in range(n_flops)]
    nets = ins + qs
    lines, referenced = [], set()
    for k in range(n_gates - n_out):
        if rng.random() < 0.12:
            kind, fanin = rng.choice(["NOT", "BUF"]), [rng.choice(nets)]
        else:
            kind = rng.choice(KINDS2)
            fanin = rng.sample(nets, rng.choice([2, 2, 2, 3]))
        lines.append(f"s_g{k} = {kind}({', '.join(fanin)})")
        referenced.update(fanin)
        nets.append(f"s_g{k}")
    unused = [n for n in nets if n not in referenced]
    rng.shuffle(unused)
    outs = []
    for k in range(n_out):
        fanin = unused[k::n_out] or [rng.choice(nets)]
        if len(fanin) == 1:
            fanin.append(rng.choice([n for n in nets if n != fanin[0]]))
        lines.append(f"s_o{k} = {rng.choice(KINDS2)}({', '.join(fanin)})")
        outs.append(f"s_o{k}")
    head = [f"# generated sequential core: {n_in} in, {n_out} out, "
            f"{n_gates} gates, {n_flops} flops",
            f"#@block SEQ in: {','.join(ins)} out: {','.join(outs)}"]
    head += [f"INPUT({n})" for n in ins] + [f"OUTPUT({n})" for n in outs]
    head += [f"{q} = DFF({o})" for q, o in zip(qs, outs)]
    return "\n".join(head + lines) + "\n"


def seq_core(seed, out_dir):
    rng = random.Random(f"seq-core:{seed}")
    s = SEQ_SHAPE
    bench = _write(os.path.join(out_dir, "seq_core.bench"),
                   seq_bench(rng, s["inputs"], s["outputs"], s["gates"], s["flops"]))
    d = plan_dict("SEQ", s["inputs"], s["outputs"], _alfsr_seed(rng), s["patterns"])
    plan = _write(os.path.join(out_dir, "seq_core.plan.json"),
                  json.dumps(d, indent=2, sort_keys=True) + "\n")
    return bench, plan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("cu-plan", "seq-core"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    made = cu_plan(args.seed, args.out) if args.what == "cu-plan" \
        else seq_core(args.seed, args.out)
    print(made)


if __name__ == "__main__":
    main()
