#include "passes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace dshuf::analyze {

namespace {

// ------------------------------------------------------------ small utils

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

bool is_punct(const std::vector<Token>& t, std::size_t i, const char* p) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == p;
}

std::size_t skip_angle(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (t[j].text == ";" || t[j].text == "{" || t[j].text == "}") break;
  }
  return i + 1;
}

std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return t.size();
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",    "for",    "while",    "switch", "catch",    "return",
      "new",   "delete", "sizeof",   "alignof", "typeid",  "decltype",
      "throw", "do",     "else",     "case",    "goto",    "noexcept",
      "static_assert", "assert", "alignas", "try", "const_cast",
      "static_cast", "dynamic_cast", "reinterpret_cast"};
  return kw;
}

/// Waiver lookup: `// analyze:<tag> <why>` on the finding's line or the
/// line above, with a non-trivial justification.
bool waived(const SourceFile& f, int line, const std::string& tag) {
  const std::string marker = "analyze:" + tag;
  const std::size_t idx = static_cast<std::size_t>(line) - 1;
  const std::size_t mline = annotation_line(f.raw_lines, idx, marker);
  if (mline == std::string::npos) return false;
  return annotation_justification(f.raw_lines[mline], marker).size() >= 3;
}

// ------------------------------------------------------- per-body events

struct Held {
  int rank = -1;
  std::string what;   // "mu_ [kFileStore=40]"
  std::string guard;  // guard variable name
};

struct Acq {
  int rank = -1;
  std::string what;
  int line = 0;
  std::vector<Held> held;  // held at the acquisition point
};

struct CallSite {
  std::string name;
  std::string receiver;
  std::string recv_class;  // explicit Class:: qualifier, if written
  int line = 0;
  bool in_catch = false;
  std::vector<Held> held;
};

struct DirectBlock {
  std::string what;
  int line = 0;
  std::vector<Held> held;
};

struct DirectAlloc {
  std::string what;
  int line = 0;
};

struct FuncSummary {
  std::vector<Acq> acquires;
  std::vector<CallSite> calls;
  std::vector<DirectBlock> blocks;
  std::vector<DirectAlloc> allocs;
  std::vector<Finding> local;  // unresolved/ambiguous guard findings
};

const std::set<std::string>& guard_types() {
  static const std::set<std::string> g = {"lock_guard", "unique_lock",
                                          "scoped_lock", "shared_lock"};
  return g;
}

const std::set<std::string>& growth_methods() {
  static const std::set<std::string> g = {
      "push_back", "emplace_back", "push_front", "emplace_front", "push",
      "emplace",   "insert",       "resize",     "reserve",        "assign",
      "append"};
  return g;
}

const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> a = {"malloc",      "calloc",
                                          "realloc",     "aligned_alloc",
                                          "make_unique", "make_shared",
                                          "to_string",   "strdup"};
  return a;
}

const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> b = {
      "sleep_for", "sleep_until", "ifstream", "ofstream", "fstream",
      "fopen",     "create_directories", "directory_iterator", "remove_all"};
  return b;
}

const std::set<std::string>& atomic_ops();  // defined with the atomics pass

const std::set<std::string>& log_macros() {
  static const std::set<std::string> m = {"LOG_DEBUG", "LOG_INFO", "LOG_WARN",
                                          "LOG_ERROR", "DSHUF_LOG"};
  return m;
}

const std::set<std::string>& obs_macros() {
  static const std::set<std::string> m = {"DSHUF_COUNTER", "DSHUF_GAUGE",
                                          "DSHUF_HISTOGRAM_US", "DSHUF_SPAN"};
  return m;
}

std::string rank_display(const ProjectIndex& idx, int rank) {
  for (const auto& [name, value] : idx.rank_values) {
    if (value == rank) return name + "=" + std::to_string(rank);
  }
  return std::to_string(rank);
}

std::string mutex_display(const ProjectIndex& idx, const MutexDecl& m) {
  return m.name + " [" + rank_display(idx, m.rank) + "]";
}

/// Split the token range of a guard's argument list on top-level commas.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t start = b;
  for (std::size_t j = b; j < e; ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    const std::string& p = t[j].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") --depth;
    if (p == "," && depth == 0) {
      out.emplace_back(start, j);
      start = j + 1;
    }
  }
  if (start < e) out.emplace_back(start, e);
  return out;
}

/// True for lock-tag arguments (std::adopt_lock etc.) that name no mutex.
bool is_lock_tag(const std::vector<Token>& t, std::size_t b, std::size_t e) {
  for (std::size_t j = b; j < e; ++j) {
    if (!is_ident(t, j)) continue;
    const std::string& w = t[j].text;
    if (w == "adopt_lock" || w == "defer_lock" || w == "try_to_lock") {
      return true;
    }
    if (w != "std") return false;
  }
  return true;  // empty argument
}

struct Region {
  std::string guard;
  std::vector<Held> locks;
  int depth = 0;
  bool active = true;
};

std::vector<Held> held_now(const std::vector<Region>& regions) {
  std::vector<Held> out;
  for (const Region& r : regions) {
    if (!r.active) continue;
    out.insert(out.end(), r.locks.begin(), r.locks.end());
  }
  return out;
}

/// Immediate receiver of a call at token `name_i`: the identifier directly
/// before the `.`/`->`. In `a.b.c(...)`, that is `b` — the one whose class
/// owns `c`, and the one the var -> class map can type when it is a
/// declared member. Empty for chained calls (`f(x).g(`) and subscripted
/// receivers (`v[i].g(`).
std::string receiver_of(const std::vector<Token>& t, std::size_t name_i,
                        std::size_t lo) {
  if (name_i < lo + 2) return {};
  if (!is_punct(t, name_i - 1, ".") && !is_punct(t, name_i - 1, "->")) {
    return {};
  }
  if (t[name_i - 2].kind != Token::Kind::kIdent) return {};
  return t[name_i - 2].text;
}

/// Extract the event stream of one function body.
FuncSummary extract(const ProjectIndex& idx, const FunctionDef& fn) {
  const SourceFile& f = idx.files[static_cast<std::size_t>(fn.file)];
  const std::vector<Token>& t = f.toks;
  const std::size_t lo = fn.body_begin;
  const std::size_t hi = std::min(fn.body_end, t.size());

  FuncSummary out;
  std::vector<Region> regions;
  std::vector<int> catch_depths;
  bool pending_catch = false;
  int depth = 0;

  const bool emit = f.cls.src_tree;

  std::size_t i = lo;
  while (i < hi) {
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "{") {
        ++depth;
        if (pending_catch) {
          catch_depths.push_back(depth);
          pending_catch = false;
        }
      } else if (tok.text == "}") {
        for (Region& r : regions) {
          if (r.active && r.depth >= depth) r.active = false;
        }
        if (!catch_depths.empty() && catch_depths.back() == depth) {
          catch_depths.pop_back();
        }
        --depth;
      }
      ++i;
      continue;
    }
    if (tok.kind != Token::Kind::kIdent) {
      ++i;
      continue;
    }
    const std::string& w = tok.text;
    const bool in_catch = !catch_depths.empty();

    if (w == "catch") {
      pending_catch = true;
      std::size_t j = i + 1;
      if (is_punct(t, j, "(")) j = skip_balanced(t, j, "(", ")");
      i = j;
      continue;
    }

    // ---- lock guard declarations -----------------------------------
    if (guard_types().count(w) != 0) {
      std::size_t j = i + 1;
      if (is_punct(t, j, "<")) j = skip_angle(t, j);
      if (is_ident(t, j) &&
          (is_punct(t, j + 1, "(") || is_punct(t, j + 1, "{"))) {
        const std::string gname = t[j].text;
        const char* open = t[j + 1].text == "(" ? "(" : "{";
        const char* close = t[j + 1].text == "(" ? ")" : "}";
        const std::size_t end = skip_balanced(t, j + 1, open, close);
        Region region;
        region.guard = gname;
        region.depth = depth;
        for (const auto& [ab, ae] :
             split_args(t, j + 2, end > 0 ? end - 1 : end)) {
          if (is_lock_tag(t, ab, ae)) continue;
          const auto decls = resolve_mutex(idx, fn.file, fn.qual, t, ab, ae);
          std::set<int> ranks;
          for (const MutexDecl* d : decls) ranks.insert(d->rank);
          if (decls.empty() || ranks.size() != 1) {
            if (emit && !waived(f, tok.line, "lock-ok")) {
              Finding fd;
              fd.file = f.cls.path;
              fd.line = static_cast<std::size_t>(tok.line);
              fd.pass = "lock-order";
              fd.rule = decls.empty() ? "lock-unresolved" : "lock-ambiguous";
              fd.message =
                  decls.empty()
                      ? "cannot resolve guarded mutex to a RankedMutex "
                        "declaration (is it ranked?)"
                      : "guarded mutex name resolves to declarations with "
                        "different ranks";
              out.local.push_back(fd);
            }
            continue;
          }
          const MutexDecl* d = decls.front();
          Acq acq;
          acq.rank = d->rank;
          acq.what = mutex_display(idx, *d);
          acq.line = tok.line;
          acq.held = held_now(regions);
          out.acquires.push_back(acq);
          region.locks.push_back({d->rank, acq.what, gname});
        }
        if (!region.locks.empty()) regions.push_back(region);
        i = end;
        continue;
      }
    }

    // ---- guard unlock / relock -------------------------------------
    if ((w == "unlock" || w == "lock") && is_punct(t, i + 1, "(")) {
      const std::string recv = receiver_of(t, i, lo);
      if (!recv.empty()) {
        for (Region& r : regions) {
          if (r.guard == recv) r.active = (w == "lock");
        }
        i = skip_balanced(t, i + 1, "(", ")");
        continue;
      }
    }

    // ---- condition-variable waits ----------------------------------
    if ((w == "wait" || w == "wait_for" || w == "wait_until") &&
        is_punct(t, i + 1, "(")) {
      const std::string recv = receiver_of(t, i, lo);
      if (!recv.empty() && idx.cv_names.count(recv) != 0) {
        // The wait releases its own guard's mutex; anything else held
        // across the wait is the hazard.
        std::string own;
        const std::size_t end = skip_balanced(t, i + 1, "(", ")");
        if (is_ident(t, i + 2)) own = t[i + 2].text;
        DirectBlock blk;
        blk.what = recv + "." + w + "()";
        blk.line = tok.line;
        for (const Region& r : regions) {
          if (!r.active || r.guard == own) continue;
          blk.held.insert(blk.held.end(), r.locks.begin(), r.locks.end());
        }
        out.blocks.push_back(blk);
        i = end;
        continue;
      }
    }

    // ---- log / obs macro aliases -----------------------------------
    if (log_macros().count(w) != 0) {
      Acq acq;
      const auto it = idx.rank_values.find("kLog");
      acq.rank = it != idx.rank_values.end() ? it->second : -1;
      acq.what = w + " [" + rank_display(idx, acq.rank) + "]";
      acq.line = tok.line;
      acq.held = held_now(regions);
      if (acq.rank >= 0) out.acquires.push_back(acq);
      if (!waived(f, tok.line, "alloc-ok")) {
        out.allocs.push_back({w + " line buffer", tok.line});
      }
      ++i;
      continue;
    }
    if (obs_macros().count(w) != 0) {
      const auto it = idx.rank_values.find("kObs");
      if (it != idx.rank_values.end()) {
        Acq acq;
        acq.rank = it->second;
        acq.what = w + " [" + rank_display(idx, acq.rank) + "]";
        acq.line = tok.line;
        acq.held = held_now(regions);
        out.acquires.push_back(acq);
      }
      ++i;
      continue;
    }
    if (w.rfind("DSHUF_CHECK", 0) == 0) {  // failure-path only: exempt
      ++i;
      continue;
    }

    // ---- allocation / blocking / call events -----------------------
    if (w == "new" && !in_catch) {
      if (!waived(f, tok.line, "alloc-ok")) {
        out.allocs.push_back({"new", tok.line});
      }
      ++i;
      continue;
    }

    const bool called = is_punct(t, i + 1, "(");
    if (called && keywords().count(w) == 0) {
      const std::string recv = receiver_of(t, i, lo);
      const bool recv_is_project_class =
          !recv.empty() && idx.var_class.count(recv) != 0 &&
          idx.var_class.at(recv).size() == 1;
      // `Class::name(...)` / `ns::name(...)` qualifier, when written.
      std::string qualifier;
      if (recv.empty() && i >= lo + 2 && is_punct(t, i - 1, "::") &&
          is_ident(t, i - 2)) {
        qualifier = t[i - 2].text;
      }

      if (blocking_calls().count(w) != 0) {
        out.blocks.push_back({w, tok.line, held_now(regions)});
      } else if (w == "join" && !recv.empty()) {
        out.blocks.push_back({recv + ".join()", tok.line,
                              held_now(regions)});
      } else if (alloc_calls().count(w) != 0) {
        if (!in_catch && !waived(f, tok.line, "alloc-ok")) {
          out.allocs.push_back({w, tok.line});
        }
      } else if (growth_methods().count(w) != 0 && !recv.empty() &&
                 (!recv_is_project_class ||
                  resolve_call(idx, w, recv, "", fn.file).empty())) {
        // Growth on a standard container: either the receiver is not a
        // project class, or it is one that doesn't define this method
        // (a var name shared with an unrelated class elsewhere). A
        // project class that does define it falls through to the call
        // branch below and has its body analyzed instead.
        if (!in_catch && !waived(f, tok.line, "alloc-ok")) {
          out.allocs.push_back({recv + "." + w + "()", tok.line});
        }
      } else if (!recv.empty() && idx.atomic_names.count(recv) != 0) {
        // std::atomic operation, not a project call (the atomics pass
        // owns these sites).
      } else if (atomic_ops().count(w) != 0 && !recv_is_project_class &&
                 qualifier.empty()) {
        // load()/store()/... without a receiver of known project class:
        // almost certainly an atomic the indexer couldn't name (e.g.
        // `buckets_[i].load(...)` whose subscripted receiver is opaque);
        // never treated as a project call.
      } else if (!qualifier.empty() &&
                 idx.class_names.count(qualifier) == 0) {
        // std:: / fs:: / chrono:: etc. — external, nothing to resolve.
      } else {
        // Declaration `Type var(args)` is a constructor call of Type.
        std::string callee = w;
        std::string creceiver = recv;
        if (recv.empty() && qualifier.empty() && i > lo &&
            is_ident(t, i - 1) && keywords().count(t[i - 1].text) == 0) {
          callee = t[i - 1].text;  // ctor of the declared type
          creceiver.clear();
        }
        CallSite c;
        c.name = callee;
        c.receiver = creceiver;
        c.recv_class = qualifier;
        c.line = tok.line;
        c.in_catch = in_catch;
        c.held = held_now(regions);
        out.calls.push_back(c);
      }
      i = i + 1;
      continue;
    }
    // Blocking stream types used as declarations: `std::ifstream in(...)`.
    if (!called && blocking_calls().count(w) != 0 &&
        (is_ident(t, i + 1) || is_punct(t, i + 1, "{"))) {
      out.blocks.push_back({w, tok.line, held_now(regions)});
      ++i;
      continue;
    }
    ++i;
  }
  return out;
}

// --------------------------------------------------------- atomics pass

const std::set<std::string>& atomic_ops() {
  static const std::set<std::string> ops = {
      "load",        "store",
      "exchange",    "fetch_add",
      "fetch_sub",   "fetch_and",
      "fetch_or",    "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong"};
  return ops;
}

/// Allowed memory orders per file (longest-suffix match), the "profile".
/// Files not listed fall back to seq_cst-only: the strongest order is
/// always acceptable; anything weaker must be declared here.
const std::vector<std::pair<std::string, std::set<std::string>>>&
atomics_profiles() {
  static const std::vector<std::pair<std::string, std::set<std::string>>>
      table = {
          {"src/obs/metrics.hpp", {"relaxed"}},
          {"src/obs/metrics.cpp", {"relaxed"}},
          {"src/obs/timeseries.cpp", {"acquire", "release"}},
          {"src/obs/trace.cpp", {"acquire", "release", "relaxed"}},
          {"src/obs/trace.hpp", {"acquire", "release", "relaxed"}},
          {"src/obs/clock.hpp", {"acquire", "release", "acq_rel"}},
          {"src/obs/clock.cpp", {"acquire", "release", "acq_rel"}},
          // Slot-index backend switch: plain published flag.
          {"src/io/slot_index.cpp", {"acquire", "release"}},
          // Epoch pins: CAS-claimed under the store lock, released with a
          // store-release that the reclaim scan acquires.
          {"src/io/mmap_store.cpp", {"acquire", "release", "acq_rel"}},
          {"src/tensor/tensor.cpp", {"acquire", "release"}},
          {"src/util/ranked_mutex.cpp", {"seq_cst", "acquire", "acq_rel"}},
          // src/netsim/* has NO entry on purpose: the virtual-rank
          // backend is single-OS-thread by design (fibers + one event
          // loop), so any atomic appearing there should trip the
          // seq_cst-only fallback and force a review.
      };
  return table;
}

const std::set<std::string>* profile_for(const std::string& path) {
  static const std::set<std::string> fallback = {"seq_cst"};
  const std::set<std::string>* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [suffix, orders] : atomics_profiles()) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        suffix.size() > best_len) {
      best = &orders;
      best_len = suffix.size();
    }
  }
  return best != nullptr ? best : &fallback;
}

void atomics_pass(const ProjectIndex& idx, std::vector<Finding>& out) {
  for (const SourceFile& f : idx.files) {
    if (!f.cls.src_tree) continue;
    const std::set<std::string>& profile = *profile_for(f.cls.path);
    const std::vector<Token>& t = f.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!is_ident(t, i) || atomic_ops().count(t[i].text) == 0) continue;
      if (!is_punct(t, i + 1, "(")) continue;
      if (i < 2 ||
          (!is_punct(t, i - 1, ".") && !is_punct(t, i - 1, "->"))) {
        continue;
      }
      if (!is_ident(t, i - 2) ||
          idx.atomic_names.count(t[i - 2].text) == 0) {
        continue;
      }
      const std::size_t end = skip_balanced(t, i + 1, "(", ")");
      std::vector<std::string> orders;
      for (std::size_t j = i + 2; j < end; ++j) {
        if (!is_ident(t, j)) continue;
        const std::string& a = t[j].text;
        if (a.rfind("memory_order_", 0) == 0) {
          orders.push_back(a.substr(13));
        } else if (a == "memory_order" && is_punct(t, j + 1, "::") &&
                   is_ident(t, j + 2)) {
          orders.push_back(t[j + 2].text);
          j += 2;
        }
      }
      const int line = t[i].line;
      if (waived(f, line, "atomic-ok")) continue;
      if (orders.empty()) {
        Finding fd;
        fd.file = f.cls.path;
        fd.line = static_cast<std::size_t>(line);
        fd.pass = "atomics";
        fd.rule = "implicit-memory-order";
        fd.message = t[i - 2].text + "." + t[i].text +
                     " uses the implicit seq_cst memory order; spell it "
                     "explicitly";
        out.push_back(fd);
        continue;
      }
      for (const std::string& o : orders) {
        if (profile.count(o) != 0) continue;
        Finding fd;
        fd.file = f.cls.path;
        fd.line = static_cast<std::size_t>(line);
        fd.pass = "atomics";
        fd.rule = "memory-order-profile";
        fd.message = "memory_order_" + o + " on " + t[i - 2].text + "." +
                     t[i].text +
                     " is not in this file's allowed profile";
        out.push_back(fd);
      }
    }
  }
}

// ------------------------------------------------------------- fixpoints

struct RankProv {
  std::string what;  // display of the acquired mutex
  int func = -1;     // function holding the direct acquire
  int line = 0;
};

struct BlockProv {
  std::string what;
  int func = -1;
  int line = 0;
};

std::string func_display(const ProjectIndex& idx, const FunctionDef& fn) {
  const std::string& path = idx.files[static_cast<std::size_t>(fn.file)]
                                .cls.path;
  const std::string qual =
      fn.qual.empty() ? fn.name : fn.qual + "::" + fn.name;
  return qual + " (" + path + ":" + std::to_string(fn.line) + ")";
}

}  // namespace

AnalysisResult run_passes(const ProjectIndex& idx) {
  AnalysisResult res;

  // ---- extract every function body once ---------------------------------
  std::vector<FuncSummary> sums;
  sums.reserve(idx.functions.size());
  for (const FunctionDef& fn : idx.functions) sums.push_back(extract(idx, fn));
  for (const FuncSummary& s : sums) {
    res.findings.insert(res.findings.end(), s.local.begin(), s.local.end());
  }

  const std::size_t n = idx.functions.size();

  // ---- fixpoint: ranks each function may acquire (transitively) ---------
  std::vector<std::map<int, RankProv>> may_acquire(n);
  for (std::size_t fi = 0; fi < n; ++fi) {
    for (const Acq& a : sums[fi].acquires) {
      may_acquire[fi].emplace(
          a.rank, RankProv{a.what, static_cast<int>(fi), a.line});
    }
  }
  // Resolve call targets once.
  std::vector<std::vector<std::pair<std::size_t, std::vector<int>>>>
      call_targets(n);
  for (std::size_t fi = 0; fi < n; ++fi) {
    for (std::size_t ci = 0; ci < sums[fi].calls.size(); ++ci) {
      const CallSite& c = sums[fi].calls[ci];
      std::vector<int> targets = resolve_call(idx, c.name, c.receiver,
                                              c.recv_class,
                                              idx.functions[fi].file);
      if (!targets.empty()) call_targets[fi].emplace_back(ci, targets);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < n; ++fi) {
      for (const auto& [ci, targets] : call_targets[fi]) {
        (void)ci;
        for (int gi : targets) {
          for (const auto& [rank, prov] :
               may_acquire[static_cast<std::size_t>(gi)]) {
            if (may_acquire[fi].emplace(rank, prov).second) changed = true;
          }
        }
      }
    }
  }

  // ---- fixpoint: may the function block? --------------------------------
  std::vector<BlockProv> may_block(n);
  for (std::size_t fi = 0; fi < n; ++fi) {
    if (!sums[fi].blocks.empty()) {
      const DirectBlock& b = sums[fi].blocks.front();
      may_block[fi] = {b.what, static_cast<int>(fi), b.line};
    }
  }
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < n; ++fi) {
      if (may_block[fi].func >= 0) continue;
      for (const auto& [ci, targets] : call_targets[fi]) {
        (void)ci;
        for (int gi : targets) {
          if (may_block[static_cast<std::size_t>(gi)].func >= 0) {
            may_block[fi] = may_block[static_cast<std::size_t>(gi)];
            changed = true;
            break;
          }
        }
        if (may_block[fi].func >= 0) break;
      }
    }
  }

  // ---- pass 1: lock order ----------------------------------------------
  std::set<std::pair<int, int>> edge_seen;
  std::set<std::string> dedupe;
  const auto record_edge = [&](int from, int to, const std::string& via,
                               bool violation) {
    if (!edge_seen.insert({from, to}).second) return;
    LockOrderEdge e;
    e.from_rank = from;
    e.to_rank = to;
    for (const auto& [name, value] : idx.rank_values) {
      if (value == from && e.from_name.empty()) e.from_name = name;
      if (value == to && e.to_name.empty()) e.to_name = name;
    }
    e.via = via;
    e.violation = violation;
    res.edges.push_back(e);
  };

  for (std::size_t fi = 0; fi < n; ++fi) {
    const FunctionDef& fn = idx.functions[fi];
    const SourceFile& f = idx.files[static_cast<std::size_t>(fn.file)];
    const std::string via = func_display(idx, fn);
    // Direct acquisitions under held locks.
    for (const Acq& a : sums[fi].acquires) {
      for (const Held& h : a.held) {
        const bool bad = a.rank <= h.rank;
        record_edge(h.rank, a.rank, via, bad);
        if (!bad || !f.cls.src_tree) continue;
        if (waived(f, a.line, "lock-ok")) continue;
        const std::string key = f.cls.path + ":" +
                                std::to_string(a.line) + ":" +
                                std::to_string(h.rank) + ">" +
                                std::to_string(a.rank);
        if (!dedupe.insert(key).second) continue;
        Finding fd;
        fd.file = f.cls.path;
        fd.line = static_cast<std::size_t>(a.line);
        fd.pass = "lock-order";
        fd.rule = "lock-order";
        fd.message = "acquires " + a.what + " while holding " + h.what +
                     " — LockRank requires strictly ascending acquisition";
        res.findings.push_back(fd);
      }
    }
    // Transitive acquisitions through calls made under held locks.
    for (const auto& [ci, targets] : call_targets[fi]) {
      const CallSite& c = sums[fi].calls[ci];
      if (c.held.empty()) continue;
      for (int gi : targets) {
        for (const auto& [rank, prov] :
             may_acquire[static_cast<std::size_t>(gi)]) {
          for (const Held& h : c.held) {
            const bool bad = rank <= h.rank;
            record_edge(h.rank, rank, via, bad);
            if (!bad || !f.cls.src_tree) continue;
            if (waived(f, c.line, "lock-ok")) continue;
            const std::string key = f.cls.path + ":" +
                                    std::to_string(c.line) + ":" +
                                    std::to_string(h.rank) + ">" +
                                    std::to_string(rank);
            if (!dedupe.insert(key).second) continue;
            const FunctionDef& g =
                idx.functions[static_cast<std::size_t>(gi)];
            const FunctionDef& leaf =
                idx.functions[static_cast<std::size_t>(prov.func)];
            Finding fd;
            fd.file = f.cls.path;
            fd.line = static_cast<std::size_t>(c.line);
            fd.pass = "lock-order";
            fd.rule = "lock-order";
            fd.message = "call to " + c.name + " may acquire " + prov.what +
                         " while holding " + h.what +
                         " — LockRank requires strictly ascending "
                         "acquisition";
            fd.chain.push_back(func_display(idx, g));
            if (prov.func != gi) fd.chain.push_back(func_display(idx, leaf));
            fd.chain.push_back("acquires " + prov.what + " at " +
                               idx.files[static_cast<std::size_t>(leaf.file)]
                                   .cls.path +
                               ":" + std::to_string(prov.line));
            res.findings.push_back(fd);
          }
        }
      }
    }
  }

  // ---- pass 2: blocking under lock -------------------------------------
  dedupe.clear();
  for (std::size_t fi = 0; fi < n; ++fi) {
    const FunctionDef& fn = idx.functions[fi];
    const SourceFile& f = idx.files[static_cast<std::size_t>(fn.file)];
    if (!f.cls.src_tree) continue;
    for (const DirectBlock& b : sums[fi].blocks) {
      if (b.held.empty()) continue;
      if (waived(f, b.line, "blocking-ok")) continue;
      const std::string key =
          f.cls.path + ":" + std::to_string(b.line);
      if (!dedupe.insert(key).second) continue;
      Finding fd;
      fd.file = f.cls.path;
      fd.line = static_cast<std::size_t>(b.line);
      fd.pass = "blocking";
      fd.rule = "blocking-under-lock";
      fd.message = b.what + " while holding " + b.held.front().what;
      res.findings.push_back(fd);
    }
    for (const auto& [ci, targets] : call_targets[fi]) {
      const CallSite& c = sums[fi].calls[ci];
      if (c.held.empty()) continue;
      for (int gi : targets) {
        const BlockProv& bp = may_block[static_cast<std::size_t>(gi)];
        if (bp.func < 0) continue;
        if (waived(f, c.line, "blocking-ok")) continue;
        const std::string key =
            f.cls.path + ":" + std::to_string(c.line);
        if (!dedupe.insert(key).second) continue;
        const FunctionDef& leaf =
            idx.functions[static_cast<std::size_t>(bp.func)];
        Finding fd;
        fd.file = f.cls.path;
        fd.line = static_cast<std::size_t>(c.line);
        fd.pass = "blocking";
        fd.rule = "blocking-under-lock";
        fd.message = "call to " + c.name + " may block (" + bp.what +
                     ") while holding " + c.held.front().what;
        fd.chain.push_back(
            func_display(idx, idx.functions[static_cast<std::size_t>(gi)]));
        if (bp.func != gi) fd.chain.push_back(func_display(idx, leaf));
        fd.chain.push_back(
            bp.what + " at " +
            idx.files[static_cast<std::size_t>(leaf.file)].cls.path + ":" +
            std::to_string(bp.line));
        res.findings.push_back(fd);
        break;
      }
    }
  }

  // ---- pass 3: atomics discipline --------------------------------------
  atomics_pass(idx, res.findings);

  // ---- pass 4: no-alloc reachability -----------------------------------
  for (std::size_t ri = 0; ri < n; ++ri) {
    if (!idx.functions[ri].noalloc) continue;
    const std::string root = func_display(idx, idx.functions[ri]);
    std::set<std::size_t> visited;
    // DFS over (function, chain-so-far).
    std::vector<std::pair<std::size_t, std::vector<std::string>>> stack;
    stack.push_back({ri, {}});
    visited.insert(ri);
    std::set<std::string> site_seen;
    while (!stack.empty()) {
      const auto [fi, chain] = stack.back();
      stack.pop_back();
      const FunctionDef& fn = idx.functions[fi];
      const SourceFile& f = idx.files[static_cast<std::size_t>(fn.file)];
      for (const DirectAlloc& a : sums[fi].allocs) {
        const std::string key =
            f.cls.path + ":" + std::to_string(a.line);
        if (!site_seen.insert(key).second) continue;
        Finding fd;
        fd.file = f.cls.path;
        fd.line = static_cast<std::size_t>(a.line);
        fd.pass = "noalloc";
        fd.rule = "noalloc";
        fd.message = "allocation (" + a.what +
                     ") reachable from DSHUF_NOALLOC root " + root;
        fd.chain = chain;
        res.findings.push_back(fd);
      }
      for (const auto& [ci, targets] : call_targets[fi]) {
        if (sums[fi].calls[ci].in_catch) continue;
        for (int gi : targets) {
          const std::size_t gu = static_cast<std::size_t>(gi);
          if (!visited.insert(gu).second) continue;
          std::vector<std::string> next = chain;
          if (next.size() < 8) {
            next.push_back(func_display(idx, idx.functions[gu]));
            stack.push_back({gu, next});
          }
        }
      }
    }
  }

  std::sort(res.findings.begin(), res.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.pass != b.pass) return a.pass < b.pass;
              return a.message < b.message;
            });
  std::sort(res.edges.begin(), res.edges.end(),
            [](const LockOrderEdge& a, const LockOrderEdge& b) {
              if (a.from_rank != b.from_rank) return a.from_rank < b.from_rank;
              return a.to_rank < b.to_rank;
            });
  return res;
}

}  // namespace dshuf::analyze
