// fcrlint v4 — generic forward-dataflow worklist solver over the CFG.
//
// One solver, parameterized by the lattice: the caller supplies the entry
// fact, a per-block transfer function, and a join. Facts are propagated
// along successor edges until a fixpoint; unreachable blocks keep an empty
// optional, which is how dead code is told apart from "reached with an
// empty fact". Termination comes from the lattices, not the solver: the
// must-set lattice below has finite height (must-sets only shrink under
// intersection), and a generous iteration backstop guards against a client
// lattice that fails to converge — a linter must degrade, never hang.
//
// One lattice ships with it: MustSet, a sorted string set with join =
// intersection, for "true on ALL paths" facts such as definite-init's
// initialized names.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fcrlint_cfg.hpp"

namespace fcrlint::dataflow {

/// Forward worklist solve. `transfer(block_id, in_fact) -> out_fact`,
/// `join(a, b) -> merged`. Returns the fact at each block's ENTRY; apply
/// `transfer` once more for the exit fact of a block. Facts must be
/// equality-comparable.
template <class Fact, class Transfer, class Join>
inline std::vector<std::optional<Fact>> solve_forward(const cfg::Cfg& g,
                                                      Fact entry_fact,
                                                      Transfer&& transfer,
                                                      Join&& join) {
  std::vector<std::optional<Fact>> in(g.blocks.size());
  if (g.blocks.empty()) return in;
  in[g.entry] = std::move(entry_fact);
  std::vector<char> queued(g.blocks.size(), 0);
  std::vector<std::size_t> work = {g.entry};
  queued[g.entry] = 1;
  // Backstop: each block can be revisited at most a lattice-height number
  // of times; 64 covers lattices of height up to 64 with slack.
  std::size_t budget = g.blocks.size() * 64 + 256;
  while (!work.empty() && budget-- > 0) {
    const std::size_t b = work.back();
    work.pop_back();
    queued[b] = 0;
    const Fact out = transfer(b, *in[b]);
    for (const std::size_t s : g.blocks[b].succs) {
      Fact merged = in[s].has_value() ? join(*in[s], out) : out;
      if (!in[s].has_value() || !(merged == *in[s])) {
        in[s] = std::move(merged);
        if (!queued[s]) {
          queued[s] = 1;
          work.push_back(s);
        }
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Must-set lattice (definite-init).
// ---------------------------------------------------------------------------

using MustSet = std::set<std::string>;

inline MustSet must_join(const MustSet& a, const MustSet& b) {
  MustSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

}  // namespace fcrlint::dataflow
