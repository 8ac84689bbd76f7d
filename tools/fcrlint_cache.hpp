// fcrlint artifact cache — content-hash keyed persistence of FileArtifacts.
//
// prepare_artifacts() is a pure function of (path, content), so its output
// can be reused across runs whenever the file bytes are unchanged. The cache
// stores, per path, the FNV-1a64 hash of the content plus the full artifact
// record (findings, allows, include edges, program model); a warm run skips
// lexing and rule execution entirely for unchanged files and only re-runs
// the cross-file analyses (cycles + interprocedural rules), which are cheap
// once the per-file models exist.
//
// Format: a line-oriented text file. Any deviation from the expected shape —
// wrong magic, wrong format revision, wrong rule count, malformed record —
// discards the whole cache; a stale or corrupt cache can only ever cost a
// cold run, never wrong findings. Saves go through a temp file + rename so
// a crashed run leaves the previous cache intact (same discipline as the
// campaign checkpoint writer).
//
//   fcrlintcache <kFormatRev> <kRules.size()> <hex-fingerprint>
//   = <hex-hash> <path>
//   F <line> <rule> <message>            per-file finding
//   A <line> <rule> <reason>             allow annotation
//   I <line> <inner>                     quoted include edge
//   P                                    artifact carries a program model
//   R <receiver>                         reserve()/clear() receiver
//   U <type>                             type name mentioned in the file
//   K <class> <base>...                  class decl with base last-names
//   G <class> <field> <mutex> <line>     FCR_GUARDED_BY field
//   D <line> <def> <qualified> <name> <class>   function (starts group)
//   L <lock>                             held/required lock of the last D
//   C <line> <receiver> <callee> <held-csv>   call site of the last D
//   M <kind> <line> <what>               allocation site of the last D
//   T <line> <head>                      throw site of the last D
//   S <kind> <line> <name>               Rng site of the last D
//   X <line> <qualified> <name> <receiver> <recv-type> <held-csv>  access
//   H <line> <name>                      definite-init hazard of the last D
//
// The header fingerprint hashes the enabled rule ids together with the
// format revisions of every analysis layer (core, CFG, dataflow, model,
// rules engine): toggling a rule or revising any layer changes the header,
// so a stale cache can never serve findings computed under different rules.
//
// Every string field is escaped (\\ \n \r \t and space -> \s) so records
// split on single spaces; empty fields survive the round trip. <held-csv>
// is the must-held lockset as ','-joined mutex names ('' when empty).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fcrlint_core.hpp"
#include "fcrlint_model.hpp"
#include "fcrlint_rules.hpp"

namespace fcrlint::cache {

/// Bump when the artifact schema or any per-file rule's behavior changes;
/// the rule count in the header catches catalogue growth automatically.
inline constexpr int kFormatRev = 2;

inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fingerprint of the enabled-rule set and every analysis layer's format
/// revision. Part of the cache header: adding, removing, or renaming a
/// rule — or bumping kCoreRev / kCfgRev / kDataflowRev / kModelRev /
/// kRulesRev — invalidates every cached artifact at once.
inline std::uint64_t rules_fingerprint() {
  std::string key;
  key += "core=" + std::to_string(kCoreRev);
  key += ";cfg=" + std::to_string(cfg::kCfgRev);
  key += ";dataflow=" + std::to_string(dataflow::kDataflowRev);
  key += ";model=" + std::to_string(model::kModelRev);
  key += ";rules=" + std::to_string(kRulesRev);
  for (const RuleMeta& r : kRules) {
    key += ';';
    key += r.id;
  }
  return fnv1a64(key);
}

namespace cdetail {

inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case ' ': out += "\\s"; break;
      default: out += c;
    }
  }
  return out;
}

inline bool unescape(std::string_view s, std::string& out) {
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 's': out += ' '; break;
      default: return false;
    }
  }
  return true;
}

/// Splits on every single space (no collapsing, so empty fields survive).
inline std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

inline bool parse_int(std::string_view s, int& out) {
  if (s.empty()) return false;
  long v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
    if (v > 1000000000L) return false;
  }
  out = static_cast<int>(v);
  return true;
}

inline bool parse_hex64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  out = 0;
  for (const char c : s) {
    out <<= 4;
    if (c >= '0' && c <= '9') out |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  return true;
}

inline std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

}  // namespace cdetail

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t loaded = 0;  ///< entries read from disk at startup
};

/// Content-hash keyed store of per-file artifacts.
class ArtifactCache {
 public:
  /// Loads the cache file. Returns false (with an empty cache) when the file
  /// is missing, has a stale header, or contains any malformed record.
  bool load(const std::string& file) {
    entries_.clear();
    std::ifstream in(file, std::ios::binary);
    if (!in) return false;
    std::string line;
    if (!std::getline(in, line) ||
        line != "fcrlintcache " + std::to_string(kFormatRev) + " " +
                    std::to_string(kRules.size()) + " " +
                    cdetail::hex64(rules_fingerprint())) {
      return false;
    }
    Entry* cur = nullptr;
    model::FunctionFacts* fn = nullptr;
    auto fail = [&]() {
      entries_.clear();
      return false;
    };
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::vector<std::string_view> f = cdetail::split(line);
      const std::string_view tag = f[0];
      auto str = [&](std::size_t i, std::string& out) {
        return i < f.size() && cdetail::unescape(f[i], out);
      };
      auto num = [&](std::size_t i, int& out) {
        return i < f.size() && cdetail::parse_int(f[i], out);
      };
      if (tag == "=") {
        std::uint64_t hash = 0;
        std::string path;
        if (f.size() != 3 || !cdetail::parse_hex64(f[1], hash) ||
            !str(2, path)) {
          return fail();
        }
        Entry& e = entries_[path];
        e.hash = hash;
        e.artifacts = FileArtifacts{};
        e.artifacts.path = path;
        cur = &e;
        fn = nullptr;
        continue;
      }
      if (cur == nullptr) return fail();
      FileArtifacts& a = cur->artifacts;
      if (tag == "F") {
        Finding fd;
        fd.file = a.path;
        if (f.size() != 4 || !num(1, fd.line) || !str(2, fd.rule) ||
            !str(3, fd.message)) {
          return fail();
        }
        a.findings.push_back(std::move(fd));
      } else if (tag == "A") {
        Allow al;
        if (f.size() != 4 || !num(1, al.line) || !str(2, al.rule) ||
            !str(3, al.reason)) {
          return fail();
        }
        a.allows.push_back(std::move(al));
      } else if (tag == "I") {
        IncludeEdge e;
        if (f.size() != 3 || !num(1, e.line) || !str(2, e.inner)) {
          return fail();
        }
        a.includes.push_back(std::move(e));
      } else if (tag == "P") {
        if (f.size() != 1) return fail();
        a.has_model = true;
      } else if (tag == "R") {
        std::string s;
        if (f.size() != 2 || !str(1, s)) return fail();
        a.model.reserved.push_back(std::move(s));
      } else if (tag == "U") {
        std::string s;
        if (f.size() != 2 || !str(1, s)) return fail();
        a.model.types_mentioned.push_back(std::move(s));
      } else if (tag == "K") {
        model::ClassDecl c;
        if (f.size() < 2 || !str(1, c.name)) return fail();
        for (std::size_t i = 2; i < f.size(); ++i) {
          std::string b;
          if (!str(i, b)) return fail();
          c.bases.push_back(std::move(b));
        }
        a.model.classes.push_back(std::move(c));
      } else if (tag == "G") {
        model::GuardedField g;
        if (f.size() != 5 || !str(1, g.cls) || !str(2, g.name) ||
            !str(3, g.mutex) || !num(4, g.line)) {
          return fail();
        }
        a.model.fields.push_back(std::move(g));
      } else if (tag == "D") {
        model::FunctionFacts ff;
        int def = 0;
        if (f.size() != 6 || !num(1, ff.line) || !num(2, def) ||
            !str(3, ff.qualified) || !str(4, ff.name) || !str(5, ff.cls)) {
          return fail();
        }
        ff.is_definition = def != 0;
        a.model.functions.push_back(std::move(ff));
        fn = &a.model.functions.back();
      } else if (tag == "L" || tag == "C" || tag == "M" || tag == "T" ||
                 tag == "S" || tag == "X" || tag == "H") {
        if (fn == nullptr) return fail();
        auto held_list = [&](std::size_t i,
                             std::vector<std::string>& out) {
          std::string csv;
          if (!str(i, csv)) return false;
          std::size_t start = 0;
          for (std::size_t p = 0; p <= csv.size(); ++p) {
            if (p == csv.size() || csv[p] == ',') {
              if (p > start) out.push_back(csv.substr(start, p - start));
              start = p + 1;
            }
          }
          return true;
        };
        if (tag == "L") {
          std::string s;
          if (f.size() != 2 || !str(1, s)) return fail();
          fn->locks.push_back(std::move(s));
        } else if (tag == "C") {
          model::CallSite c;
          if (f.size() != 5 || !num(1, c.line) || !str(2, c.receiver) ||
              !str(3, c.callee) || !held_list(4, c.held)) {
            return fail();
          }
          fn->calls.push_back(std::move(c));
        } else if (tag == "H") {
          model::InitHazard h;
          if (f.size() != 3 || !num(1, h.line) || !str(2, h.name)) {
            return fail();
          }
          fn->init_hazards.push_back(std::move(h));
        } else if (tag == "M") {
          model::AllocSite m;
          if (f.size() != 4 || !num(1, m.kind) || !num(2, m.line) ||
              !str(3, m.what)) {
            return fail();
          }
          fn->allocs.push_back(std::move(m));
        } else if (tag == "T") {
          model::ThrowSite ts;
          if (f.size() != 3 || !num(1, ts.line) || !str(2, ts.head)) {
            return fail();
          }
          fn->throw_sites.push_back(std::move(ts));
        } else if (tag == "S") {
          model::RngSite r;
          if (f.size() != 4 || !num(1, r.kind) || !num(2, r.line) ||
              !str(3, r.name)) {
            return fail();
          }
          fn->rngs.push_back(std::move(r));
        } else {  // X
          model::Access x;
          int q = 0;
          if (f.size() != 7 || !num(1, x.line) || !num(2, q) ||
              !str(3, x.name) || !str(4, x.receiver) ||
              !str(5, x.recv_type) || !held_list(6, x.held)) {
            return fail();
          }
          x.qualified = q != 0;
          fn->accesses.push_back(std::move(x));
        }
      } else {
        return fail();
      }
    }
    stats_.loaded = entries_.size();
    return true;
  }

  /// Returns the cached artifacts for `path` when the stored hash matches.
  const FileArtifacts* lookup(const std::string& path, std::uint64_t hash) {
    const auto it = entries_.find(path);
    if (it == entries_.end() || it->second.hash != hash) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second.artifacts;
  }

  void store(const std::string& path, std::uint64_t hash,
             const FileArtifacts& artifacts) {
    Entry& e = entries_[path];
    e.hash = hash;
    e.artifacts = artifacts;
  }

  /// Drops entries for paths not in this run's file set, so deleted files do
  /// not accumulate forever.
  template <typename Pred>
  void prune(Pred&& keep) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = keep(it->first) ? std::next(it) : entries_.erase(it);
    }
  }

  /// Writes the cache atomically (temp file + rename). Returns false on any
  /// I/O failure; the previous cache file is left untouched in that case.
  bool save(const std::string& file) const {
    const std::string tmp = file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out << "fcrlintcache " << kFormatRev << ' ' << kRules.size() << ' '
          << cdetail::hex64(rules_fingerprint()) << '\n';
      for (const auto& [path, e] : entries_) {
        const FileArtifacts& a = e.artifacts;
        out << "= " << cdetail::hex64(e.hash) << ' ' << cdetail::escape(path)
            << '\n';
        for (const Finding& fd : a.findings) {
          out << "F " << fd.line << ' ' << cdetail::escape(fd.rule) << ' '
              << cdetail::escape(fd.message) << '\n';
        }
        for (const Allow& al : a.allows) {
          out << "A " << al.line << ' ' << cdetail::escape(al.rule) << ' '
              << cdetail::escape(al.reason) << '\n';
        }
        for (const IncludeEdge& inc : a.includes) {
          out << "I " << inc.line << ' ' << cdetail::escape(inc.inner) << '\n';
        }
        if (!a.has_model) continue;
        out << "P\n";
        for (const std::string& r : a.model.reserved) {
          out << "R " << cdetail::escape(r) << '\n';
        }
        for (const std::string& u : a.model.types_mentioned) {
          out << "U " << cdetail::escape(u) << '\n';
        }
        for (const model::ClassDecl& c : a.model.classes) {
          out << "K " << cdetail::escape(c.name);
          for (const std::string& b : c.bases) out << ' ' << cdetail::escape(b);
          out << '\n';
        }
        for (const model::GuardedField& g : a.model.fields) {
          out << "G " << cdetail::escape(g.cls) << ' '
              << cdetail::escape(g.name) << ' ' << cdetail::escape(g.mutex)
              << ' ' << g.line << '\n';
        }
        for (const model::FunctionFacts& fn : a.model.functions) {
          auto held_csv = [](const std::vector<std::string>& held) {
            std::string csv;
            for (std::size_t i = 0; i < held.size(); ++i) {
              csv += (i == 0 ? "" : ",") + held[i];
            }
            return cdetail::escape(csv);
          };
          out << "D " << fn.line << ' ' << (fn.is_definition ? 1 : 0) << ' '
              << cdetail::escape(fn.qualified) << ' '
              << cdetail::escape(fn.name) << ' ' << cdetail::escape(fn.cls)
              << '\n';
          for (const std::string& l : fn.locks) {
            out << "L " << cdetail::escape(l) << '\n';
          }
          for (const model::CallSite& c : fn.calls) {
            out << "C " << c.line << ' ' << cdetail::escape(c.receiver) << ' '
                << cdetail::escape(c.callee) << ' ' << held_csv(c.held)
                << '\n';
          }
          for (const model::AllocSite& m : fn.allocs) {
            out << "M " << m.kind << ' ' << m.line << ' '
                << cdetail::escape(m.what) << '\n';
          }
          for (const model::ThrowSite& ts : fn.throw_sites) {
            out << "T " << ts.line << ' ' << cdetail::escape(ts.head) << '\n';
          }
          for (const model::RngSite& r : fn.rngs) {
            out << "S " << r.kind << ' ' << r.line << ' '
                << cdetail::escape(r.name) << '\n';
          }
          for (const model::Access& x : fn.accesses) {
            out << "X " << x.line << ' ' << (x.qualified ? 1 : 0) << ' '
                << cdetail::escape(x.name) << ' ' << cdetail::escape(x.receiver)
                << ' ' << cdetail::escape(x.recv_type) << ' '
                << held_csv(x.held) << '\n';
          }
          for (const model::InitHazard& h : fn.init_hazards) {
            out << "H " << h.line << ' ' << cdetail::escape(h.name) << '\n';
          }
        }
      }
      if (!out) {
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), file.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

  const CacheStats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    FileArtifacts artifacts;
  };
  std::map<std::string, Entry> entries_;
  CacheStats stats_;
};

}  // namespace fcrlint::cache
