// Shared token-pattern helpers for ds_lint rules.
#ifndef DEEPSERVE_TOOLS_DS_LINT_RULES_UTIL_H_
#define DEEPSERVE_TOOLS_DS_LINT_RULES_UTIL_H_

#include <string>
#include <vector>

#include "lint.h"

namespace ds_lint {

inline bool IsTok(const std::vector<Token>& t, size_t i, const char* s) {
  return i < t.size() && t[i].kind != Tok::kPreproc && t[i].text == s;
}
inline bool IsIdentTok(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

// Previous non-preprocessor token index, or SIZE_MAX.
inline size_t PrevTok(const std::vector<Token>& t, size_t i) {
  while (i-- > 0) {
    if (t[i].kind != Tok::kPreproc) return i;
  }
  return static_cast<size_t>(-1);
}

// True if tokens[i] is used as a call: `name(` not preceded by `.` or `->`
// when `require_free` is set (so member functions that shadow a libc name
// are not flagged).
inline bool IsCallOf(const std::vector<Token>& t, size_t i, bool require_free) {
  if (!IsIdentTok(t, i) || !IsTok(t, i + 1, "(")) return false;
  if (!require_free) return true;
  size_t p = PrevTok(t, i);
  if (p == static_cast<size_t>(-1)) return true;
  return !(t[p].text == "." || t[p].text == "->");
}

// The function (with body) whose body range contains token index i, if any.
inline const FuncDecl* EnclosingFunction(const FileStructure& fs, size_t i) {
  const FuncDecl* best = nullptr;
  for (const FuncDecl& f : fs.functions) {
    if (f.has_body && f.body_begin <= i && i <= f.body_end) {
      // Innermost wins (local classes / nested scan artifacts).
      if (best == nullptr || f.body_begin > best->body_begin) best = &f;
    }
  }
  return best;
}

// Matches a member-ish chain in [begin, end): `m`, `this->m`, `x.m`,
// `x->m`, or a longer chain ending in a member access. On match, sets
// `*member` to the final identifier and `*bare` to whether the chain is a
// bare / this-> access (so it refers to the enclosing class's own field).
inline bool MemberChain(const std::vector<Token>& t, size_t begin, size_t end,
                        std::string* member, bool* bare) {
  // Collect non-preproc tokens of the range.
  std::vector<size_t> ix;
  for (size_t i = begin; i < end; ++i) {
    if (t[i].kind != Tok::kPreproc) ix.push_back(i);
  }
  if (ix.empty()) return false;
  // Must end with an identifier.
  size_t last = ix.back();
  if (!IsIdentTok(t, last)) return false;
  // Whole range must be an access chain: ident ((.|->) ident)* with optional
  // leading `this ->` or `(*this).`-free simple forms. Any '(' means a call
  // or wrapper (e.g. SortedKeysOf(m)) and is not a bare member access.
  bool expect_ident = true;
  for (size_t k = 0; k < ix.size(); ++k) {
    const Token& tok = t[ix[k]];
    if (expect_ident) {
      if (tok.kind != Tok::kIdent) return false;
      expect_ident = false;
    } else {
      if (tok.kind != Tok::kPunct || (tok.text != "." && tok.text != "->")) return false;
      expect_ident = true;
    }
  }
  if (expect_ident) return false;
  *member = t[last].text;
  *bare = ix.size() == 1 || (ix.size() == 3 && t[ix[0]].text == "this");
  return true;
}

}  // namespace ds_lint

#endif  // DEEPSERVE_TOOLS_DS_LINT_RULES_UTIL_H_
