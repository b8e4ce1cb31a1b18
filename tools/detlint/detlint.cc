#include "detlint.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/fs.h"

namespace jf::detlint {

namespace {

// --- the rule catalogue -----------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"unordered-iter",
     "iteration over a std::unordered_{map,set} (range-for or begin())",
     "unordered iteration order depends on hash seeding, libstdc++ version, and "
     "insertion history — any value that escapes such a loop into a Report, "
     "serializer, digest, or RNG fork breaks byte-identity across runs",
     "iterate a sorted key copy (or use std::map / a sorted vector) before "
     "anything observable; annotate '// detlint: ok(...)' only when the loop's "
     "effect is provably order-independent"},
    {"banned-entropy",
     "ambient entropy source (std::random_device, rand, srand, *rand48)",
     "results must be a pure function of the scenario seed; ambient entropy "
     "makes reports unreproducible by construction",
     "thread an explicit jf::Rng derived from the scenario seed (fork() for "
     "independent streams) instead"},
    {"wall-clock",
     "wall-clock read (system_clock, steady_clock, time(), gettimeofday, ...) "
     "outside obs/",
     "clock values leaking into a result-producing path make reports depend on "
     "when and how fast the run happened; only the observability layer (obs/) "
     "may read clocks, because its output never feeds a Report",
     "move timing into obs:: spans/metrics, or annotate '// detlint: ok(...)' "
     "when the value demonstrably reaches only stderr progress/stats output"},
    {"hw-concurrency",
     "hardware topology probe (hardware_concurrency, this_thread::get_id, "
     "native_handle)",
     "reports must be byte-identical at any --threads; machine shape may pick "
     "the *speed* (worker count) but must never pick the *numbers*",
     "route thread-count defaulting through parallel::resolve_threads (the one "
     "annotated user) and keep results schedule-independent"},
    {"raw-file-write",
     "direct file write (ofstream, fopen, fwrite) bypassing common/fs",
     "a torn write observed by a concurrent reader (the result store, shared by "
     "runs on one --cache-dir) is a nondeterministic failure; "
     "common::write_file_atomic's temp-file+rename is the only sanctioned "
     "write path",
     "use common::write_file_atomic (ifstream reads are fine)"},
    {"span-literal",
     "obs::Span constructed with a non-literal name",
     "the trace recorder stores the name *pointer* (zero-copy contract in "
     "obs/trace.h); a non-literal may dangle by export time and makes span "
     "identity allocation-dependent",
     "pass a string literal; encode variability in span args, not the name"},
    {"parallel-accum",
     "floating-point accumulation into a shared (non-indexed) lvalue inside a "
     "parallel_for / WorkerTeam::run body",
     "FP addition is not associative, so cross-iteration accumulation ordered "
     "by the scheduler yields run-to-run different bits (and a data race); "
     "every parallel region must write per-index slots and reduce serially in "
     "canonical order",
     "write results[i] per index and add a serial canonical apply step after "
     "the join (see flow/mcf.cc's sweep/apply split)"},
    {"unsorted-dir-iter",
     "std::filesystem directory iteration outside common/fs",
     "readdir order is filesystem-dependent; feeding it onward un-sorted makes "
     "store state or report content machine-dependent",
     "collect entries into a sorted container before use (see "
     "ResultStore::load_index in store/result_store.cc, which keys them in a "
     "name-ordered map); annotate '// detlint: ok(...)' when downstream state "
     "is provably order-independent"},
};

// --- lexical preprocessing --------------------------------------------------

// One scanned translation unit: per physical line, the code with comments
// removed and string/char literal contents blanked (quotes kept), plus the
// comment text (for '// detlint: ok(...)' detection).
struct FileText {
  std::string path;
  std::vector<std::string> code;
  std::vector<std::string> comment;
};

FileText preprocess(const std::string& path, const std::string& text) {
  FileText f;
  f.path = path;
  f.code.emplace_back();
  f.comment.emplace_back();
  enum class St { kNormal, kLine, kBlock, kString, kChar, kRaw };
  St st = St::kNormal;
  std::string raw_close;  // for raw strings: ")delim\""
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (st == St::kLine) st = St::kNormal;
      // Unterminated ordinary literals cannot span lines; reset defensively.
      if (st == St::kString || st == St::kChar) st = St::kNormal;
      f.code.emplace_back();
      f.comment.emplace_back();
      continue;
    }
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case St::kNormal:
        if (c == '/' && next == '/') {
          st = St::kLine;
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          ++i;
        } else if (c == '"') {
          // Raw string: R"delim( ... )delim"  — blank the whole payload.
          const bool raw = i > 0 && text[i - 1] == 'R' &&
                           (i < 2 || !(std::isalnum(static_cast<unsigned char>(text[i - 2])) ||
                                       text[i - 2] == '_'));
          f.code.back() += '"';
          if (raw) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') delim += text[j++];
            raw_close = ")" + delim + "\"";
            st = St::kRaw;
            i = j;  // skip past '('
          } else {
            st = St::kString;
          }
        } else if (c == '\'') {
          f.code.back() += '\'';
          st = St::kChar;
        } else {
          f.code.back() += c;
        }
        break;
      case St::kLine:
        f.comment.back() += c;
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kNormal;
          ++i;
        } else {
          f.comment.back() += c;
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          f.code.back() += '"';
          st = St::kNormal;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          f.code.back() += '\'';
          st = St::kNormal;
        }
        break;
      case St::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          f.code.back() += '"';
          i += raw_close.size() - 1;
          st = St::kNormal;
        }
        break;
    }
  }
  return f;
}

// --- small matchers ---------------------------------------------------------

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Occurrences of `token` with word boundaries at both ends (token may itself
// contain '::').
std::vector<std::size_t> find_word(const std::string& line, const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !word_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !word_char(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

// First word occurrence that is directly followed (modulo spaces) by '('.
bool has_call(const std::string& line, const std::string& token) {
  for (std::size_t pos : find_word(line, token)) {
    std::size_t j = pos + token.size();
    while (j < line.size() && line[j] == ' ') ++j;
    if (j < line.size() && line[j] == '(') return true;
  }
  return false;
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  return i;
}

// Trailing identifier of an expression like "runs[w.run].shared" -> "shared",
// "cache_" -> "cache_", "make_map()" -> "make_map".
std::string last_identifier(const std::string& expr) {
  std::string cur, last;
  for (char c : expr) {
    if (word_char(c)) {
      cur += c;
    } else {
      if (!cur.empty() && !std::isdigit(static_cast<unsigned char>(cur[0]))) last = cur;
      cur.clear();
    }
  }
  if (!cur.empty() && !std::isdigit(static_cast<unsigned char>(cur[0]))) last = cur;
  return last;
}

std::vector<std::string> identifiers(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (word_char(c)) {
      cur += c;
    } else if (!cur.empty()) {
      if (!std::isdigit(static_cast<unsigned char>(cur[0]))) out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty() && !std::isdigit(static_cast<unsigned char>(cur[0]))) out.push_back(cur);
  return out;
}

// Does `path` end with `suffix`, aligned to a '/' boundary?
bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
  return path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/';
}

// Is some path component of `path` equal to `dir`?
bool in_dir(const std::string& path, const std::string& dir) {
  std::size_t pos = 0;
  while (pos < path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    if (path.compare(pos, slash - pos, dir) == 0) return true;
    pos = slash + 1;
  }
  return false;
}

// --- rule engines -----------------------------------------------------------

using Sink = std::vector<Finding>;

void add(Sink& out, const FileText& f, std::size_t line_idx, const char* rule,
         std::string message) {
  out.push_back({f.path, static_cast<int>(line_idx) + 1, rule, std::move(message)});
}

// Names declared (anywhere in the file) with an unordered container type.
// Joins the code into one buffer so declarations whose template argument list
// wraps across lines are still picked up.
std::set<std::string> unordered_names(const FileText& f) {
  std::string all;
  for (const auto& line : f.code) {
    all += line;
    all += '\n';
  }
  std::set<std::string> names;
  static const std::vector<std::string> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  for (const auto& cont : kContainers) {
    for (std::size_t pos : find_word(all, cont)) {
      std::size_t i = skip_spaces(all, pos + cont.size());
      if (i >= all.size() || all[i] != '<') continue;
      int depth = 0;
      while (i < all.size()) {
        if (all[i] == '<') ++depth;
        if (all[i] == '>' && all[i - 1] != '-') {
          --depth;
          if (depth == 0) break;
        }
        ++i;
      }
      if (depth != 0) continue;
      ++i;
      // Skip whitespace/newlines, refs, pointers between type and name.
      while (i < all.size() &&
             (all[i] == ' ' || all[i] == '\n' || all[i] == '&' || all[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < all.size() && word_char(all[i])) name += all[i++];
      if (!name.empty()) names.insert(name);
    }
  }
  return names;
}

void rule_unordered_iter(const FileText& f, Sink& out) {
  const std::set<std::string> names = unordered_names(f);
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    // Range-for: for (decl : expr)
    for (std::size_t pos : find_word(line, "for")) {
      std::size_t i = skip_spaces(line, pos + 3);
      if (i >= line.size() || line[i] != '(') continue;
      int depth = 0;
      std::size_t colon = std::string::npos;
      std::size_t close = line.size();
      for (std::size_t j = i; j < line.size(); ++j) {
        if (line[j] == '(') ++depth;
        if (line[j] == ')') {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (line[j] == ':' && depth == 1 && colon == std::string::npos) {
          const bool dbl = (j > 0 && line[j - 1] == ':') || (j + 1 < line.size() && line[j + 1] == ':');
          if (!dbl) colon = j;
        }
      }
      if (colon == std::string::npos) continue;
      const std::string expr = line.substr(colon + 1, close - colon - 1);
      const std::string base = last_identifier(expr);
      if (expr.find("unordered_") != std::string::npos || names.count(base) != 0) {
        add(out, f, li, "unordered-iter",
            "range-for over unordered container '" + (base.empty() ? expr : base) +
                "' — iteration order is hash- and history-dependent");
      }
    }
    // Explicit iterator walks: name.begin() / name.cbegin() and friends.
    for (const auto& name : names) {
      for (std::size_t pos : find_word(line, name)) {
        std::size_t i = pos + name.size();
        if (i < line.size() && line[i] == '.') {
          ++i;
        } else if (i + 1 < line.size() && line[i] == '-' && line[i + 1] == '>') {
          i += 2;
        } else {
          continue;
        }
        for (const char* it : {"begin", "cbegin", "rbegin"}) {
          const std::string tok(it);
          if (line.compare(i, tok.size(), tok) == 0 && i + tok.size() < line.size() &&
              line[i + tok.size()] == '(') {
            add(out, f, li, "unordered-iter",
                "iterator walk over unordered container '" + name +
                    "' — iteration order is hash- and history-dependent");
          }
        }
      }
    }
  }
}

void rule_banned_entropy(const FileText& f, Sink& out) {
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* tok : {"random_device", "srand", "drand48", "lrand48", "mrand48"}) {
      if (!find_word(line, tok).empty()) {
        add(out, f, li, "banned-entropy",
            std::string("ambient entropy source '") + tok + "'");
      }
    }
    if (has_call(line, "rand")) {
      add(out, f, li, "banned-entropy", "ambient entropy source 'rand()'");
    }
  }
}

void rule_wall_clock(const FileText& f, Sink& out) {
  // The observability layer is the sanctioned clock reader: its output never
  // feeds a Report (gated by the obs-on/off byte-identity tests).
  if (in_dir(f.path, "obs")) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* tok : {"system_clock", "steady_clock", "high_resolution_clock",
                            "gettimeofday", "clock_gettime", "localtime", "gmtime"}) {
      if (!find_word(line, tok).empty()) {
        add(out, f, li, "wall-clock", std::string("wall-clock read '") + tok + "'");
      }
    }
    for (const char* tok : {"time", "clock"}) {
      if (has_call(line, tok)) {
        add(out, f, li, "wall-clock", std::string("wall-clock read '") + tok + "()'");
      }
    }
  }
}

void rule_hw_concurrency(const FileText& f, Sink& out) {
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* tok : {"hardware_concurrency", "this_thread::get_id", "native_handle"}) {
      if (!find_word(line, tok).empty()) {
        add(out, f, li, "hw-concurrency",
            std::string("hardware topology probe '") + tok + "'");
      }
    }
  }
}

void rule_raw_file_write(const FileText& f, Sink& out) {
  // common/fs.cc *is* the sanctioned write path.
  if (path_ends_with(f.path, "common/fs.cc")) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* tok : {"ofstream", "fopen", "freopen", "fwrite"}) {
      if (!find_word(line, tok).empty()) {
        add(out, f, li, "raw-file-write",
            std::string("direct file write via '") + tok +
                "' bypasses common::write_file_atomic");
      }
    }
  }
}

void rule_span_literal(const FileText& f, Sink& out) {
  // The Span class definition itself lives in obs/trace.{h,cc}.
  if (path_ends_with(f.path, "obs/trace.h") || path_ends_with(f.path, "obs/trace.cc")) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (std::size_t pos : find_word(line, "Span")) {
      std::size_t i = skip_spaces(line, pos + 4);
      // Optional variable name: `Span s(...)` vs temporary `Span(...)`.
      while (i < line.size() && word_char(line[i])) ++i;
      i = skip_spaces(line, i);
      if (i >= line.size() || line[i] != '(') continue;
      i = skip_spaces(line, i + 1);
      if (i >= line.size() || line[i] == ')') continue;  // not a construction
      if (line[i] == '"') continue;                      // literal name: ok
      if (line.compare(i, 5, "const") == 0) continue;    // copy-ctor declaration
      add(out, f, li, "span-literal",
          "obs::Span name is not a string literal — the recorder stores the "
          "pointer, not a copy");
    }
  }
}

// Line ranges covered by parallel_for(...) / team.run(...) call argument
// lists (which contain the lambda bodies).
std::vector<std::pair<std::size_t, std::size_t>> parallel_regions(const FileText& f) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    std::size_t call = std::string::npos;
    for (std::size_t pos : find_word(line, "parallel_for")) {
      const std::size_t j = skip_spaces(line, pos + 12);
      if (j < line.size() && line[j] == '(') call = j;
    }
    if (call == std::string::npos) {
      for (std::size_t pos : find_word(line, "run")) {
        // Only method calls: team.run( / team->run(.
        const bool member =
            (pos >= 1 && line[pos - 1] == '.') ||
            (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
        if (!member) continue;
        const std::size_t j = skip_spaces(line, pos + 3);
        if (j < line.size() && line[j] == '(') call = j;
      }
    }
    if (call == std::string::npos) continue;
    // The region is the call's parenthesized argument list, wherever it ends.
    int depth = 0;
    std::size_t end_line = li;
    bool done = false;
    for (std::size_t lj = li; lj < f.code.size() && !done; ++lj) {
      const std::string& l2 = f.code[lj];
      for (std::size_t k = lj == li ? call : 0; k < l2.size(); ++k) {
        if (l2[k] == '(') ++depth;
        if (l2[k] == ')') {
          --depth;
          if (depth == 0) {
            end_line = lj;
            done = true;
            break;
          }
        }
      }
    }
    regions.emplace_back(li, end_line);
  }
  return regions;
}

void rule_parallel_accum(const FileText& f, Sink& out) {
  // Names with floating-point evidence: declared on a line mentioning
  // double/float (covers `double total`, `std::vector<double> xs`, ...).
  // Keywords and vocabulary types are excluded — `std` appearing on a
  // double-bearing line must not taint every `std::` expression in the file.
  static const std::set<std::string> kNotNames = {
      "std",    "const",  "constexpr", "static", "double",      "float",
      "vector", "array",  "size_t",    "int",    "auto",        "return",
      "if",     "for",    "while",     "long",   "static_cast", "unsigned"};
  std::set<std::string> fp_names;
  for (const auto& line : f.code) {
    if (find_word(line, "double").empty() && find_word(line, "float").empty()) continue;
    for (const auto& id : identifiers(line)) {
      if (kNotNames.count(id) == 0) fp_names.insert(id);
    }
  }
  for (const auto& [lo, hi] : parallel_regions(f)) {
    for (std::size_t li = lo; li <= hi && li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      for (std::size_t i = 0; i + 1 < line.size(); ++i) {
        const char op = line[i];
        if ((op != '+' && op != '-' && op != '*' && op != '/') || line[i + 1] != '=') continue;
        if (i + 2 < line.size() && line[i + 2] == '=') continue;  // ==, <=, ... guards
        if (i > 0 && (line[i - 1] == op || line[i - 1] == '<' || line[i - 1] == '>')) continue;
        // Left-hand side: walk back over the assigned lvalue.
        std::size_t j = i;
        while (j > 0 && (line[j - 1] == ' ')) --j;
        if (j > 0 && line[j - 1] == ']') continue;  // per-index slot: results[i] += ...
        std::size_t end = j;
        while (j > 0 && (word_char(line[j - 1]) || line[j - 1] == '.' ||
                         (j > 1 && line[j - 2] == '-' && line[j - 1] == '>'))) {
          --j;
        }
        const std::string target = line.substr(j, end - j);
        if (target.empty() || !word_char(target[0])) continue;
        const std::string rhs = line.substr(i + 2, line.find(';', i) - i - 2);
        bool fp = false;
        for (const auto& id : identifiers(target)) fp |= fp_names.count(id) != 0;
        for (const auto& id : identifiers(rhs)) fp |= fp_names.count(id) != 0;
        // Literal like 0.5 in the rhs also marks the accumulation as FP.
        for (std::size_t k = 0; k + 2 < rhs.size() && !fp; ++k) {
          fp = std::isdigit(static_cast<unsigned char>(rhs[k])) && rhs[k + 1] == '.' &&
               std::isdigit(static_cast<unsigned char>(rhs[k + 2]));
        }
        if (!fp) continue;
        add(out, f, li, "parallel-accum",
            "floating-point accumulation into shared '" + target +
                "' inside a parallel region — reduction order follows the "
                "scheduler");
      }
    }
  }
}

void rule_unsorted_dir_iter(const FileText& f, Sink& out) {
  if (path_ends_with(f.path, "common/fs.cc")) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    for (const char* tok : {"directory_iterator", "recursive_directory_iterator"}) {
      if (!find_word(f.code[li], tok).empty()) {
        add(out, f, li, "unsorted-dir-iter",
            std::string("filesystem iteration via '") + tok +
                "' — readdir order is filesystem-dependent");
      }
    }
  }
}

// --- suppression ------------------------------------------------------------

bool has_ok_annotation(const std::string& comment) {
  const std::size_t pos = comment.find("detlint: ok(");
  if (pos == std::string::npos) return false;
  // An empty reason does not count: suppressions must say why.
  const std::size_t open = pos + 12;
  return open < comment.size() && comment[open] != ')';
}

bool suppressed(const FileText& f, const Finding& fi) {
  const std::size_t li = static_cast<std::size_t>(fi.line) - 1;
  if (li < f.comment.size() && has_ok_annotation(f.comment[li])) return true;
  return li > 0 && has_ok_annotation(f.comment[li - 1]);
}

bool allowlisted(const Options& opts, const Finding& fi) {
  for (const auto& [rule, suffix] : opts.allowlist) {
    if (rule != "*" && rule != fi.rule) continue;
    if (path_ends_with(fi.file, suffix)) return true;
  }
  return false;
}

}  // namespace

// --- public API -------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

Options parse_allowlist(const std::string& text) {
  Options opts;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string rule, path, extra;
    if (!(fields >> rule)) continue;  // blank / comment-only line
    if (!(fields >> path) || (fields >> extra)) {
      throw std::runtime_error("allowlist line " + std::to_string(lineno) +
                               ": expected '<rule-id|*> <path-suffix>'");
    }
    if (rule != "*" && find_rule(rule) == nullptr) {
      throw std::runtime_error("allowlist line " + std::to_string(lineno) +
                               ": unknown rule '" + rule + "'");
    }
    opts.allowlist.emplace_back(rule, path);
  }
  return opts;
}

std::vector<Finding> lint_text(const std::string& display_path, const std::string& text,
                               const Options& opts) {
  const FileText f = preprocess(display_path, text);
  auto enabled = [&](const char* id) {
    return std::find(opts.disabled.begin(), opts.disabled.end(), id) == opts.disabled.end();
  };
  Sink raw;
  if (enabled("unordered-iter")) rule_unordered_iter(f, raw);
  if (enabled("banned-entropy")) rule_banned_entropy(f, raw);
  if (enabled("wall-clock")) rule_wall_clock(f, raw);
  if (enabled("hw-concurrency")) rule_hw_concurrency(f, raw);
  if (enabled("raw-file-write")) rule_raw_file_write(f, raw);
  if (enabled("span-literal")) rule_span_literal(f, raw);
  if (enabled("parallel-accum")) rule_parallel_accum(f, raw);
  if (enabled("unsorted-dir-iter")) rule_unsorted_dir_iter(f, raw);

  Sink out;
  for (auto& fi : raw) {
    if (suppressed(f, fi) || allowlisted(opts, fi)) continue;
    out.push_back(std::move(fi));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> lint_paths(const std::vector<std::filesystem::path>& paths,
                                const std::filesystem::path& rel_base, const Options& opts) {
  namespace fs = std::filesystem;
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
  };
  auto display = [&](const fs::path& p) {
    const fs::path rel = p.lexically_proximate(rel_base);
    return (rel.empty() || rel.native().rfind("..", 0) == 0 ? p : rel).generic_string();
  };
  std::vector<fs::path> files;
  for (const auto& p : paths) {
    if (fs::is_directory(p)) {
      // detlint: ok(entries are collected then sorted below — its own rule)
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (e.is_regular_file() && is_source(e.path())) files.push_back(e.path());
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end(),
            [&](const fs::path& a, const fs::path& b) { return display(a) < display(b); });
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> out;
  for (const auto& file : files) {
    const std::vector<Finding> fs_ = lint_text(display(file), common::read_file(file), opts);
    out.insert(out.end(), fs_.begin(), fs_.end());
  }
  return out;
}

std::string format_findings(const std::vector<Finding>& findings) {
  if (findings.empty()) return {};
  std::ostringstream os;
  std::set<std::string> seen_rules;
  for (const auto& fi : findings) {
    os << fi.file << ":" << fi.line << ": [" << fi.rule << "] " << fi.message << "\n";
    seen_rules.insert(fi.rule);
  }
  os << "\n";
  for (const auto& id : seen_rules) {
    const RuleInfo* r = find_rule(id);
    if (r != nullptr) os << id << ": hint: " << r->hint << "\n";
  }
  os << "detlint: " << findings.size() << " finding(s)\n";
  return os.str();
}

}  // namespace jf::detlint
