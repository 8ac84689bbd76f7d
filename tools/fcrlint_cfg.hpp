// fcrlint v4 — per-function control-flow graphs over the token stream.
//
// The v3 program model (fcrlint_model.hpp) sees function bodies as flat fact
// bags: an initialization anywhere covers every read. That whole-extent view
// cannot prove init-before-read on all paths, so v4 builds a real CFG from
// the same significant/non-preprocessor token ranges the extractor already
// walks:
//
//   * blocks hold their code token spans in execution order;
//   * if / else and ternary chains become diamonds, while / for / range-for
//     loops get a head block with a back edge, do-while bodies precede
//     their condition (the body always runs once), switch lowers each
//     case/default label to a block with explicit fallthrough edges, and
//     return / throw / break / continue terminate their block with an edge
//     to the exit or the enclosing loop targets;
//   * every block records the stack of enclosing guards (if / ternary /
//     loop conditions, outermost first);
//   * loops are indexed with their body token spans so analyses can ask for
//     the innermost loop enclosing a token and re-run a sub-CFG over just
//     that body.
//
// The builder is a pure function of a token range: no model types, no
// filesystem, never fails (malformed input degrades to a linear block — the
// right behaviour for a linter that must keep scanning). Consumers feed the
// result to the worklist solver in fcrlint_dataflow.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "fcrlint_core.hpp"
#include "fcrlint_lexer.hpp"

namespace fcrlint::cfg {

/// Half-open token index range [lo, hi) into the filtered token vector.
struct Span {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool contains(std::size_t tok) const { return tok >= lo && tok < hi; }
  bool empty() const { return hi <= lo; }
};

/// An enclosing control condition. Blocks carry the id stack of every guard
/// that lexically dominates them, so a draw site can be classified by what
/// gates it (loop guards describe iteration, not branching, and are skipped
/// by gate taint).
struct Guard {
  enum Kind : int {
    kIf = 0,
    kTernary = 1,
    kWhile = 2,
    kFor = 3,
    kDoWhile = 4,
    kSwitch = 5,
    kRangeFor = 6,
  };
  Span cond;  ///< condition tokens (range expression for range-for)
  int kind = kIf;
  bool is_loop() const {
    return kind == kWhile || kind == kFor || kind == kDoWhile ||
           kind == kRangeFor;
  }
};

struct Block {
  std::vector<Span> spans;  ///< code token spans, in execution order
  std::vector<std::size_t> succs;
  std::vector<std::size_t> guards;  ///< enclosing guard ids, outermost first
};

/// A loop with its body extent, for innermost-loop queries and sub-CFG
/// re-builds over the body.
struct Loop {
  Span body;          ///< token span of the body statement
  Span cond;          ///< condition / range tokens
  int kind = Guard::kWhile;
  std::size_t guard = 0;  ///< index into Cfg::guard_table
};

struct Cfg {
  std::vector<Block> blocks;
  std::vector<Guard> guard_table;
  std::vector<Loop> loops;
  std::size_t entry = 0;
  std::size_t exit = 0;

  /// Block whose code spans contain `tok`; npos when the token fell between
  /// blocks (structural punctuation consumed by the builder).
  std::size_t block_of(std::size_t tok) const {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (const Span& s : blocks[b].spans) {
        if (s.contains(tok)) return b;
      }
    }
    return npos;
  }

  /// Innermost loop whose body contains `tok` (npos when not in a loop).
  std::size_t innermost_loop(std::size_t tok) const {
    std::size_t best = npos;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (!loops[i].body.contains(tok)) continue;
      if (best == npos || loops[i].body.lo >= loops[best].body.lo) best = i;
    }
    return best;
  }

  /// Innermost loop strictly enclosing loop `li` (npos at top level).
  std::size_t enclosing_loop(std::size_t li) const {
    std::size_t best = npos;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (i == li) continue;
      if (loops[i].body.lo > loops[li].body.lo ||
          loops[i].body.hi < loops[li].body.hi) {
        continue;
      }
      if (best == npos || loops[i].body.lo >= loops[best].body.lo) best = i;
    }
    return best;
  }
};

namespace cfgdetail {

using fcrlint::detail::match_forward;

class Builder {
 public:
  explicit Builder(const std::vector<Token>& t) : t_(t) {}

  Cfg build(std::size_t lo, std::size_t hi) {
    g_ = Cfg{};
    g_.entry = new_block();
    g_.exit = new_block();
    cur_ = g_.entry;
    parse_stmts(lo, hi);
    if (cur_ != npos) edge(cur_, g_.exit);
    return std::move(g_);
  }

 private:
  const std::vector<Token>& t_;
  Cfg g_;
  std::size_t cur_ = 0;  ///< npos after a terminator (dead region follows)
  std::vector<std::size_t> guard_stack_;
  std::vector<std::size_t> break_ctx_;     ///< innermost break target last
  std::vector<std::size_t> continue_ctx_;  ///< innermost continue target last

  std::size_t new_block() {
    g_.blocks.push_back({});
    g_.blocks.back().guards = guard_stack_;
    return g_.blocks.size() - 1;
  }

  void edge(std::size_t a, std::size_t b) {
    for (const std::size_t s : g_.blocks[a].succs) {
      if (s == b) return;
    }
    g_.blocks[a].succs.push_back(b);
  }

  /// Current live block, reviving a dead (unreachable) region with a fresh
  /// predecessor-less block so dead code still gets scanned.
  std::size_t live() {
    if (cur_ == npos) cur_ = new_block();
    return cur_;
  }

  /// Appends the code tokens [lo, hi) to the live block.
  void append_code(std::size_t lo, std::size_t hi) {
    if (lo < hi) g_.blocks[live()].spans.push_back({lo, hi});
  }

  /// Appends an expression, lowering top-level ternaries into diamonds so a
  /// draw on one arm is visibly conditional. Nested ternaries recurse.
  void append_expr(std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    // Find the first top-level '?' (ignoring parenthesized subexpressions).
    std::size_t q = npos;
    int depth = 0;
    for (std::size_t m = lo; m < hi; ++m) {
      const Token& tok = t_[m];
      if (tok.punct("(") || tok.punct("[") || tok.punct("{")) ++depth;
      else if (tok.punct(")") || tok.punct("]") || tok.punct("}")) --depth;
      else if (depth == 0 && tok.punct("?")) {
        q = m;
        break;
      }
    }
    if (q == npos) {
      append_code(lo, hi);
      return;
    }
    // Matching ':' of the ternary at q (skipping nested '?' ... ':').
    std::size_t colon = npos;
    int tern = 0;
    depth = 0;
    for (std::size_t m = q + 1; m < hi; ++m) {
      const Token& tok = t_[m];
      if (tok.punct("(") || tok.punct("[") || tok.punct("{")) ++depth;
      else if (tok.punct(")") || tok.punct("]") || tok.punct("}")) --depth;
      else if (depth == 0 && tok.punct("?")) ++tern;
      else if (depth == 0 && tok.punct(":")) {
        if (tern == 0) {
          colon = m;
          break;
        }
        --tern;
      }
    }
    if (colon == npos) {
      append_code(lo, hi);
      return;
    }
    append_code(lo, q);
    const std::size_t head = live();
    g_.guard_table.push_back({{lo, q}, Guard::kTernary});
    guard_stack_.push_back(g_.guard_table.size() - 1);
    cur_ = new_block();
    edge(head, cur_);
    append_expr(q + 1, colon);
    const std::size_t true_end = cur_;
    cur_ = new_block();
    edge(head, cur_);
    append_expr(colon + 1, hi);
    const std::size_t false_end = cur_;
    guard_stack_.pop_back();
    const std::size_t join = new_block();
    if (true_end != npos) edge(true_end, join);
    if (false_end != npos) edge(false_end, join);
    cur_ = join;
  }

  /// End index (one past ';') of a plain statement starting at `i`, with
  /// depth tracking so ';' inside parens (for-headers, lambdas) is skipped.
  std::size_t stmt_end(std::size_t i, std::size_t hi) const {
    int depth = 0;
    for (std::size_t m = i; m < hi; ++m) {
      const Token& tok = t_[m];
      if (tok.punct("(") || tok.punct("[") || tok.punct("{")) ++depth;
      else if (tok.punct(")") || tok.punct("]") || tok.punct("}")) --depth;
      else if (depth <= 0 && tok.punct(";")) return m + 1;
    }
    return hi;
  }

  void parse_stmts(std::size_t lo, std::size_t hi) {
    std::size_t i = lo;
    while (i < hi) i = parse_stmt(i, hi);
  }

  /// Parses one statement at `i`; returns the index to resume at.
  std::size_t parse_stmt(std::size_t i, std::size_t hi) {
    const Token& tok = t_[i];
    if (tok.punct(";")) return i + 1;
    if (tok.punct("{")) {
      const std::size_t close = match_forward(t_, i, "{", "}");
      if (close == npos || close > hi) {
        append_code(i, hi);
        return hi;
      }
      parse_stmts(i + 1, close);
      return close + 1;
    }
    if (tok.ident("if")) return parse_if(i, hi);
    if (tok.ident("while")) return parse_while(i, hi);
    if (tok.ident("for")) return parse_for(i, hi);
    if (tok.ident("do")) return parse_do(i, hi);
    if (tok.ident("switch")) return parse_switch(i, hi);
    if (tok.ident("try")) return parse_try(i, hi);
    if (tok.ident("return") || tok.ident("throw") || tok.ident("co_return")) {
      const std::size_t end = stmt_end(i, hi);
      append_expr(i, end);
      if (cur_ != npos) edge(cur_, g_.exit);
      cur_ = npos;
      return end;
    }
    if (tok.ident("break") || tok.ident("continue")) {
      const bool is_break = tok.text == "break";
      const auto& ctx = is_break ? break_ctx_ : continue_ctx_;
      if (cur_ != npos) {
        if (!ctx.empty()) {
          edge(cur_, ctx.back());
        } else {
          // Sub-CFG of a loop body analyzed in isolation: both jumps end
          // the current iteration, i.e. flow to the sub-graph's exit.
          edge(cur_, g_.exit);
        }
      }
      cur_ = npos;
      return stmt_end(i, hi);
    }
    const std::size_t end = stmt_end(i, hi);
    append_expr(i, end);
    return end;
  }

  /// The `( ... )` group after a keyword at `i`; fills [open, close] token
  /// indices. Returns false when the shape is off (degrade to plain code).
  bool paren_group(std::size_t i, std::size_t hi, std::size_t& open,
                   std::size_t& close) {
    open = i;
    while (open < hi && !t_[open].punct("(")) {
      if (t_[open].punct("{") || t_[open].punct(";")) return false;
      ++open;
    }
    if (open >= hi) return false;
    close = match_forward(t_, open, "(", ")");
    return close != npos && close < hi;
  }

  std::size_t parse_if(std::size_t i, std::size_t hi) {
    std::size_t open = 0, close = 0;
    if (!paren_group(i + 1, hi, open, close)) {
      append_code(i, stmt_end(i, hi));
      return stmt_end(i, hi);
    }
    const Span cond{open + 1, close};
    append_expr(cond.lo, cond.hi);  // condition evaluates unconditionally
    const std::size_t head = live();
    g_.guard_table.push_back({cond, Guard::kIf});
    const std::size_t guard_id = g_.guard_table.size() - 1;

    guard_stack_.push_back(guard_id);
    cur_ = new_block();
    edge(head, cur_);
    std::size_t resume = parse_stmt(close + 1, hi);
    const std::size_t then_end = cur_;
    std::size_t else_end = npos;
    bool has_else = false;
    if (resume < hi && t_[resume].ident("else")) {
      has_else = true;
      cur_ = new_block();
      edge(head, cur_);
      resume = parse_stmt(resume + 1, hi);
      else_end = cur_;
    }
    guard_stack_.pop_back();

    const std::size_t join = new_block();
    if (then_end != npos) edge(then_end, join);
    if (else_end != npos) edge(else_end, join);
    if (!has_else) edge(head, join);
    cur_ = join;
    return resume;
  }

  std::size_t parse_while(std::size_t i, std::size_t hi) {
    std::size_t open = 0, close = 0;
    if (!paren_group(i + 1, hi, open, close)) {
      append_code(i, stmt_end(i, hi));
      return stmt_end(i, hi);
    }
    const Span cond{open + 1, close};
    const std::size_t head = new_block();
    if (cur_ != npos) edge(cur_, head);
    cur_ = head;
    append_code(cond.lo, cond.hi);
    g_.guard_table.push_back({cond, Guard::kWhile});
    const std::size_t guard_id = g_.guard_table.size() - 1;
    const std::size_t after = new_block();
    edge(head, after);

    guard_stack_.push_back(guard_id);
    break_ctx_.push_back(after);
    continue_ctx_.push_back(head);
    cur_ = new_block();
    edge(head, cur_);
    const std::size_t body_lo = close + 1;
    const std::size_t resume = parse_stmt(body_lo, hi);
    if (cur_ != npos) edge(cur_, head);  // back edge
    break_ctx_.pop_back();
    continue_ctx_.pop_back();
    guard_stack_.pop_back();

    g_.loops.push_back({{body_lo, resume}, cond, Guard::kWhile, guard_id});
    cur_ = after;
    return resume;
  }

  std::size_t parse_for(std::size_t i, std::size_t hi) {
    std::size_t open = 0, close = 0;
    if (!paren_group(i + 1, hi, open, close)) {
      append_code(i, stmt_end(i, hi));
      return stmt_end(i, hi);
    }
    // Split the header on top-level ';' — none plus a top-level ':' means a
    // range-for.
    std::vector<std::size_t> semis;
    std::size_t range_colon = npos;
    int depth = 0;
    for (std::size_t m = open + 1; m < close; ++m) {
      const Token& tk = t_[m];
      if (tk.punct("(") || tk.punct("[") || tk.punct("{")) {
        ++depth;
      } else if (tk.punct(")") || tk.punct("]") || tk.punct("}")) {
        --depth;
      } else if (depth <= 0 && tk.punct(";")) {
        semis.push_back(m);
      } else if (depth <= 0 && tk.punct(":") && range_colon == npos) {
        range_colon = m;
      }
    }
    if (semis.empty() && range_colon != npos) {
      // Range-for: the range expression is the loop guard; per-element
      // iteration is modelled as head -> body -> head.
      const Span range{range_colon + 1, close};
      const std::size_t head = new_block();
      if (cur_ != npos) edge(cur_, head);
      cur_ = head;
      append_code(range.lo, range.hi);
      g_.guard_table.push_back({range, Guard::kRangeFor});
      const std::size_t guard_id = g_.guard_table.size() - 1;
      const std::size_t after = new_block();
      edge(head, after);
      guard_stack_.push_back(guard_id);
      break_ctx_.push_back(after);
      continue_ctx_.push_back(head);
      cur_ = new_block();
      edge(head, cur_);
      const std::size_t body_lo = close + 1;
      const std::size_t resume = parse_stmt(body_lo, hi);
      if (cur_ != npos) edge(cur_, head);
      break_ctx_.pop_back();
      continue_ctx_.pop_back();
      guard_stack_.pop_back();
      g_.loops.push_back({{body_lo, resume}, range, Guard::kRangeFor, guard_id});
      cur_ = after;
      return resume;
    }
    const std::size_t init_hi = semis.empty() ? close : semis[0];
    const Span cond{semis.empty() ? close : semis[0] + 1,
                    semis.size() < 2 ? close : semis[1]};
    const Span inc{semis.size() < 2 ? close : semis[1] + 1, close};

    append_expr(open + 1, init_hi);  // init statement runs once, outside
    const std::size_t head = new_block();
    if (cur_ != npos) edge(cur_, head);
    cur_ = head;
    append_code(cond.lo, cond.hi);
    g_.guard_table.push_back({cond, Guard::kFor});
    const std::size_t guard_id = g_.guard_table.size() - 1;
    const std::size_t after = new_block();
    edge(head, after);

    guard_stack_.push_back(guard_id);
    const std::size_t latch = new_block();  // increment block
    break_ctx_.push_back(after);
    continue_ctx_.push_back(latch);
    cur_ = new_block();
    edge(head, cur_);
    const std::size_t body_lo = close + 1;
    const std::size_t resume = parse_stmt(body_lo, hi);
    if (cur_ != npos) edge(cur_, latch);
    cur_ = latch;
    append_code(inc.lo, inc.hi);
    edge(latch, head);  // back edge
    break_ctx_.pop_back();
    continue_ctx_.pop_back();
    guard_stack_.pop_back();

    g_.loops.push_back({{body_lo, resume}, cond, Guard::kFor, guard_id});
    cur_ = after;
    return resume;
  }

  std::size_t parse_do(std::size_t i, std::size_t hi) {
    const std::size_t body_lo = i + 1;
    const std::size_t pre = cur_;
    const std::size_t body = new_block();
    if (pre != npos) edge(pre, body);
    const std::size_t cond_blk = new_block();
    const std::size_t after = new_block();

    // The guard is registered before the body parses so nested blocks carry
    // it; its condition span is patched in once `while (...)` is found.
    g_.guard_table.push_back({{0, 0}, Guard::kDoWhile});
    const std::size_t guard_id = g_.guard_table.size() - 1;
    guard_stack_.push_back(guard_id);
    break_ctx_.push_back(after);
    continue_ctx_.push_back(cond_blk);
    cur_ = body;
    std::size_t resume = parse_stmt(body_lo, hi);
    if (cur_ != npos) edge(cur_, cond_blk);
    break_ctx_.pop_back();
    continue_ctx_.pop_back();
    guard_stack_.pop_back();
    const std::size_t body_hi = resume;

    Span cond{0, 0};
    if (resume < hi && t_[resume].ident("while")) {
      std::size_t open = 0, close = 0;
      if (paren_group(resume + 1, hi, open, close)) {
        cond = {open + 1, close};
        resume = close + 1;
        if (resume < hi && t_[resume].punct(";")) ++resume;
      } else {
        resume = stmt_end(resume, hi);
      }
    }
    g_.guard_table[guard_id].cond = cond;
    cur_ = cond_blk;
    append_code(cond.lo, cond.hi);
    edge(cond_blk, body);  // back edge: the body runs again
    edge(cond_blk, after);
    g_.loops.push_back({{body_lo, body_hi}, cond, Guard::kDoWhile, guard_id});
    cur_ = after;
    return resume;
  }

  std::size_t parse_switch(std::size_t i, std::size_t hi) {
    std::size_t open = 0, close = 0;
    if (!paren_group(i + 1, hi, open, close)) {
      append_code(i, stmt_end(i, hi));
      return stmt_end(i, hi);
    }
    std::size_t body_open = close + 1;
    if (body_open >= hi || !t_[body_open].punct("{")) {
      append_code(i, stmt_end(i, hi));
      return stmt_end(i, hi);
    }
    const std::size_t body_close = match_forward(t_, body_open, "{", "}");
    if (body_close == npos || body_close > hi) {
      append_code(i, hi);
      return hi;
    }
    const Span cond{open + 1, close};
    append_expr(cond.lo, cond.hi);
    const std::size_t head = live();
    const std::size_t after = new_block();
    g_.guard_table.push_back({cond, Guard::kSwitch});
    const std::size_t guard_id = g_.guard_table.size() - 1;

    guard_stack_.push_back(guard_id);
    break_ctx_.push_back(after);
    bool saw_default = false;
    cur_ = npos;  // nothing runs before the first label
    std::size_t m = body_open + 1;
    while (m < body_close) {
      const Token& tk = t_[m];
      if (tk.ident("case") || tk.ident("default")) {
        if (tk.text == "default") saw_default = true;
        // Label extends to the first top-level ':' (``::`` is one token, so
        // a lone ':' is unambiguous).
        std::size_t colon = m + 1;
        int depth = 0;
        while (colon < body_close) {
          const Token& ct = t_[colon];
          if (ct.punct("(") || ct.punct("[") || ct.punct("{")) ++depth;
          else if (ct.punct(")") || ct.punct("]") || ct.punct("}")) --depth;
          else if (depth == 0 && ct.punct(":")) break;
          ++colon;
        }
        const std::size_t fall_from = cur_;
        cur_ = new_block();
        edge(head, cur_);
        if (fall_from != npos) edge(fall_from, cur_);  // fallthrough
        m = colon + 1;
        continue;
      }
      m = parse_stmt(m, body_close);
    }
    break_ctx_.pop_back();
    guard_stack_.pop_back();
    if (cur_ != npos) edge(cur_, after);
    if (!saw_default) edge(head, after);
    cur_ = after;
    return body_close + 1;
  }

  std::size_t parse_try(std::size_t i, std::size_t hi) {
    std::size_t body_open = i + 1;
    while (body_open < hi && !t_[body_open].punct("{")) ++body_open;
    if (body_open >= hi) return hi;
    const std::size_t pre = live();
    const std::size_t after = new_block();
    cur_ = new_block();
    edge(pre, cur_);
    std::size_t resume = parse_stmt(body_open, hi);
    if (cur_ != npos) edge(cur_, after);
    while (resume < hi && t_[resume].ident("catch")) {
      std::size_t open = 0, close = 0;
      if (!paren_group(resume + 1, hi, open, close)) break;
      // The exception may fire before any try-body fact was established, so
      // the handler joins from the pre-try state (conservative for must-
      // analyses) — and from the exit-bound throw edges implicitly.
      cur_ = new_block();
      edge(pre, cur_);
      resume = parse_stmt(close + 1, hi);
      if (cur_ != npos) edge(cur_, after);
    }
    cur_ = after;
    return resume;
  }
};

}  // namespace cfgdetail

/// Builds the CFG for the statement list in token range [lo, hi) of `t`
/// (significant, non-preprocessor tokens — the same filtered stream the
/// model extractor walks). Pure; never fails.
inline Cfg build_cfg(const std::vector<Token>& t, std::size_t lo,
                     std::size_t hi) {
  return cfgdetail::Builder(t).build(lo, hi);
}

}  // namespace fcrlint::cfg
