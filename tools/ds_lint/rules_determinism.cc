// Family D: determinism. The DES substrate must be bit-identical per seed
// (PAPER.md reproduction strategy; pinned end-to-end by determinism_test), so
// wall-clock reads, ambient randomness, environment lookups, and iteration
// over unordered containers are banned from the tree outright.
#include <array>
#include <memory>
#include <string>

#include "lint.h"
#include "rules_util.h"

namespace ds_lint {
namespace {

// Nondeterministic (or ambient-state) functions. All time must come from
// sim::Simulator::Now(), all randomness from common/rng.h, all configuration
// from explicit flags/structs.
constexpr std::array<const char*, 13> kBannedCalls = {
    "rand",       "srand",          "random",    "time",     "clock",
    "gettimeofday", "clock_gettime", "timespec_get", "localtime", "gmtime",
    "getenv",     "setenv",         "system",
};

// Nondeterministic types; mt19937 et al. are fine (seeded, deterministic),
// the entropy/clock sources are not.
constexpr std::array<const char*, 5> kBannedTypes = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock",
    "default_random_engine",
};

class BannedCallRule : public Rule {
 public:
  std::string_view id() const override { return "banned-call"; }

  void Check(const FileCtx& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    const auto& t = f.lexed.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsCallOf(t, i, /*require_free=*/true)) continue;
      // `name(` can also be a function *declaration* that merely shadows a
      // libc name (e.g. a member `time()`); the scanner already found those.
      if (IsDeclName(f, t[i])) continue;
      for (const char* banned : kBannedCalls) {
        if (t[i].text == banned) {
          out->push_back({f.path, t[i].line, std::string(id()),
                          "call to nondeterministic '" + t[i].text +
                              "' — use sim time (Simulator::Now), common/rng.h, "
                              "or explicit config instead"});
        }
      }
    }
  }

 private:
  static bool IsDeclName(const FileCtx& f, const Token& tok) {
    for (const FuncDecl& fn : f.structure.functions) {
      if (fn.line == tok.line && fn.name == tok.text) return true;
    }
    return false;
  }
};

class BannedTypeRule : public Rule {
 public:
  std::string_view id() const override { return "banned-type"; }

  void Check(const FileCtx& f, const ProjectIndex&,
             std::vector<Finding>* out) const override {
    const auto& t = f.lexed.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsIdentTok(t, i)) continue;
      for (const char* banned : kBannedTypes) {
        if (t[i].text == banned) {
          out->push_back({f.path, t[i].line, std::string(id()),
                          "use of nondeterministic type/clock '" + t[i].text +
                              "' — seed a deterministic generator from "
                              "common/rng.h or read sim time"});
        }
      }
    }
  }
};

// Iteration over std::unordered_{map,set} *fields*: the per-class member
// index (built by the scanner) links each loop back to the declaration.
// Bare / this-> accesses resolve against the enclosing class; obj.member_
// accesses resolve against the member name across all classes, since a
// token-level tool cannot type `obj`.
class UnorderedIterRule : public Rule {
 public:
  std::string_view id() const override { return "unordered-iter"; }

  void Check(const FileCtx& f, const ProjectIndex& idx,
             std::vector<Finding>* out) const override {
    const auto& t = f.lexed.tokens;
    for (const FuncDecl& fn : f.structure.functions) {
      if (!fn.has_body) continue;
      for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (IsTok(t, i, "for") && IsTok(t, i + 1, "(")) {
          CheckRangeFor(f, idx, fn, i, out);
        }
        if ((IsTok(t, i, "begin") || IsTok(t, i, "cbegin")) && IsTok(t, i + 1, "(")) {
          CheckBeginCall(f, idx, fn, i, out);
        }
      }
    }
  }

 private:
  static bool IsUnordered(const ProjectIndex& idx, const std::string& cls,
                          const std::string& member, bool bare) {
    if (bare) {
      auto it = idx.unordered_members.find(cls);
      return it != idx.unordered_members.end() && it->second.count(member) > 0;
    }
    return idx.unordered_member_names.count(member) > 0;
  }

  void Emit(const FileCtx& f, int line, const std::string& member,
            std::vector<Finding>* out) const {
    out->push_back({f.path, line, std::string(id()),
                    "iteration over unordered member '" + member +
                        "' has nondeterministic order — iterate a sorted copy of its "
                        "keys, use an ordered container, or annotate with a "
                        "reason"});
  }

  void CheckRangeFor(const FileCtx& f, const ProjectIndex& idx, const FuncDecl& fn,
                     size_t for_tok, std::vector<Finding>* out) const {
    const auto& t = f.lexed.tokens;
    size_t open = for_tok + 1;
    size_t close = MatchDelim(t, open);
    // The range-for ':' sits at paren depth 1; ignore '::' (own token).
    int depth = 0;
    size_t colon = 0;
    for (size_t i = open; i < close; ++i) {
      if (t[i].kind == Tok::kPreproc) continue;
      if (t[i].text == "(" || t[i].text == "[" || t[i].text == "{") ++depth;
      else if (t[i].text == ")" || t[i].text == "]" || t[i].text == "}") --depth;
      else if (t[i].text == ":" && depth == 1) { colon = i; break; }
    }
    if (colon == 0) return;  // classic for(;;)
    std::string member;
    bool bare = false;
    if (MemberChain(t, colon + 1, close, &member, &bare) &&
        IsUnordered(idx, fn.class_name, member, bare)) {
      Emit(f, t[for_tok].line, member, out);
    }
  }

  // `m_.begin()` / `m_.cbegin()` — explicit iterator loops over an
  // unordered member (find()/end() lookups are fine and not matched).
  void CheckBeginCall(const FileCtx& f, const ProjectIndex& idx, const FuncDecl& fn,
                      size_t begin_tok, std::vector<Finding>* out) const {
    const auto& t = f.lexed.tokens;
    size_t dot = PrevTok(t, begin_tok);
    if (dot == static_cast<size_t>(-1) || (t[dot].text != "." && t[dot].text != "->")) return;
    size_t mem = PrevTok(t, dot);
    if (!IsIdentTok(t, mem)) return;
    size_t before = PrevTok(t, mem);
    bool bare = true;
    if (before != static_cast<size_t>(-1) && (t[before].text == "." || t[before].text == "->")) {
      size_t obj = PrevTok(t, before);
      bare = obj != static_cast<size_t>(-1) && t[obj].text == "this";
    }
    if (IsUnordered(idx, fn.class_name, t[mem].text, bare)) {
      Emit(f, t[begin_tok].line, t[mem].text, out);
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> MakeDeterminismRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<BannedCallRule>());
  rules.push_back(std::make_unique<BannedTypeRule>());
  rules.push_back(std::make_unique<UnorderedIterRule>());
  return rules;
}

}  // namespace ds_lint
