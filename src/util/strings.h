// Small string utilities used by the HTTP codec, PAC evaluator and DNS.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sc {

std::vector<std::string> splitString(std::string_view s, char sep);
std::string_view trimWhitespace(std::string_view s);
std::string toLower(std::string_view s);
bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);
bool iequals(std::string_view a, std::string_view b);

// True when `s` holds a control byte (0x00-0x1f or DEL). No request line or
// URL may carry one: a bare CR or LF would split the line it is written
// into (RFC 9112 §2.2).
bool hasControlByte(std::string_view s);

// True when `s` holds a control byte other than HTAB. A header field or a
// response's reason phrase may hold HTAB but no other (RFC 9110 §5.5,
// RFC 9112 §4): a bare CR would split the line a proxy forwards.
bool hasFieldControlByte(std::string_view s);

// ASCII-only case fold, locale-independent (bytes >= 0x80 map to
// themselves, matching std::tolower in the "C" locale the DPI path and the
// PAC evaluator both assume).
constexpr char asciiLower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// Case-insensitive substring search without allocating a lowered copy.
bool icontains(std::string_view haystack, std::string_view needle);

// Shell-style glob used by PAC shExpMatch(): '*' matches any run, '?' one char.
bool shExpMatch(std::string_view text, std::string_view pattern);

// True when `host` equals `domain` or is a subdomain of it
// (PAC dnsDomainIs semantics: suffix match on dot boundary).
bool dnsDomainIs(std::string_view host, std::string_view domain);

}  // namespace sc
