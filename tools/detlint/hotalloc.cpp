// hotalloc pass: allocation lint for annotated hot kernels.
//
// A `// detlint: hot` comment line directly above a function definition
// marks it as a measured hot path (the eytzinger ring descent, the
// SHA-1 lanes, the publish ring walk, the resolver tally loop). Inside
// the annotated function this pass flags anything that can hit the
// allocator: `new`, make_unique/make_shared, `std::string`
// construction, and the growing container calls. Hot kernels must work
// in caller-provided storage; the benches that justified PR 5/7 assume
// it.
#include "detlint/detlint.hpp"

#include <cctype>
#include <sstream>

#include "detlint/lex.hpp"

namespace detlint {
namespace {

using lex::find_word;
using lex::match_forward;
using lex::skip_spaces;
using lex::word_at;

/// 1-based line numbers of `// detlint: hot` annotation comments,
/// parsed from the ORIGINAL content (the stripper blanks comments).
/// The comment text after `//` must be exactly `detlint: hot` —
/// prose that merely *mentions* the marker (docs, this file) is not
/// an annotation.
std::vector<int> annotation_lines(const std::string& content) {
  std::vector<int> out;
  std::stringstream ss(content);
  std::string line;
  int line_no = 0;
  while (std::getline(ss, line)) {
    ++line_no;
    const std::size_t slash = line.find("//");
    if (slash == std::string::npos) continue;
    std::size_t from = slash + 2;
    while (from < line.size() && std::isspace(static_cast<unsigned char>(
                                     line[from])))
      ++from;
    std::size_t to = line.size();
    while (to > from && std::isspace(static_cast<unsigned char>(
                            line[to - 1])))
      --to;
    if (line.compare(from, to - from, "detlint: hot") == 0 &&
        to - from == 12)
      out.push_back(line_no);
  }
  return out;
}

void scan_region(const std::string& path, const std::string& code,
                 const std::vector<std::size_t>& lines, std::size_t begin,
                 std::size_t end, std::vector<Finding>& out) {
  auto flag = [&](std::size_t pos, const std::string& what) {
    out.push_back({path, lex::line_of(lines, pos), "hot-alloc",
                   what + " inside a '// detlint: hot' function hits the "
                   "allocator on the measured path; use caller-provided "
                   "or pre-sized storage",
                   false, "", "hotalloc", ""});
  };

  static const std::vector<std::string> kAllocWords = {"new", "make_unique",
                                                       "make_shared"};
  for (const auto& token : kAllocWords) {
    for (std::size_t pos = find_word(code, token, begin);
         pos != std::string::npos && pos < end;
         pos = find_word(code, token, pos + 1)) {
      flag(pos, "'" + token + "'");
    }
  }

  // std::string construction (std::string_view is a distinct token and
  // does not match).
  for (std::size_t pos = find_word(code, "string", begin);
       pos != std::string::npos && pos < end;
       pos = find_word(code, "string", pos + 1)) {
    if (pos >= 5 && code.compare(pos - 5, 5, "std::") == 0)
      flag(pos, "'std::string' construction");
  }

  static const std::vector<std::string> kGrowthCalls = {
      "push_back", "emplace_back", "emplace", "insert", "append",
      "resize", "reserve"};
  for (const auto& token : kGrowthCalls) {
    for (std::size_t pos = find_word(code, token, begin);
         pos != std::string::npos && pos < end;
         pos = find_word(code, token, pos + 1)) {
      // Member-call position only: `.push_back(` / `->push_back(`.
      const std::size_t prev = lex::prev_non_space(code, pos);
      if (prev == std::string::npos ||
          (code[prev] != '.' && code[prev] != '>'))
        continue;
      const std::size_t after = skip_spaces(code, pos + token.size());
      if (after < code.size() && code[after] == '(')
        flag(pos, "container growth call '." + token + "(...)'");
    }
  }
}

}  // namespace

std::vector<Finding> check_hotalloc(const std::string& path,
                                    const std::string& content) {
  const std::string code = strip_comments_and_strings(content);
  const std::vector<std::size_t> line_starts = lex::index_lines(code);
  std::vector<Finding> out;

  for (const int ann_line : annotation_lines(content)) {
    // The annotated function's body: first '{' at or after the line
    // following the annotation.
    if (static_cast<std::size_t>(ann_line) >= line_starts.size())
      continue;  // annotation on the last line: nothing to annotate
    const std::size_t from = line_starts[static_cast<std::size_t>(ann_line)];
    const std::size_t open = code.find('{', from);
    if (open == std::string::npos) continue;
    const std::size_t close = match_forward(code, open, '{', '}');
    if (close == std::string::npos) continue;
    scan_region(path, code, line_starts, open, close, out);
  }
  return out;
}

}  // namespace detlint
