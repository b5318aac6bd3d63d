#include "util/strings.h"

#include <algorithm>
#include <cctype>

namespace sc {

std::vector<std::string> splitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

namespace {
// std::isspace in the "C" locale, without the locale lookup.
constexpr bool isAsciiSpace(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
}  // namespace

std::string_view trimWhitespace(std::string_view s) {
  while (!s.empty() && isAsciiSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && isAsciiSpace(s.back())) s.remove_suffix(1);
  return s;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

bool hasControlByte(std::string_view s) {
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (b < 0x20 || b == 0x7f) return true;
  }
  return false;
}

bool hasFieldControlByte(std::string_view s) {
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if ((b < 0x20 && b != '\t') || b == 0x7f) return true;
  }
  return false;
}

bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (haystack.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    std::size_t j = 0;
    while (j < needle.size() &&
           asciiLower(haystack[i + j]) == asciiLower(needle[j]))
      ++j;
    if (j == needle.size()) return true;
  }
  return false;
}

bool shExpMatch(std::string_view text, std::string_view pattern) {
  // Iterative glob with single '*' backtracking point.
  std::size_t t = 0, p = 0;
  std::size_t starP = std::string_view::npos, starT = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '*') {
      starP = p++;
      starT = t;
    } else if (starP != std::string_view::npos) {
      p = starP + 1;
      t = ++starT;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool dnsDomainIs(std::string_view host, std::string_view domain) {
  if (host.size() < domain.size()) return false;
  if (!iequals(host.substr(host.size() - domain.size()), domain)) return false;
  if (host.size() == domain.size()) return true;
  // Must match on a label boundary: either the pattern starts with '.' or the
  // preceding host character is a dot.
  return domain.front() == '.' || host[host.size() - domain.size() - 1] == '.';
}

}  // namespace sc
