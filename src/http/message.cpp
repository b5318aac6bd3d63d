#include "http/message.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace sc::http {

namespace {

// Three-way compare of a stored lowercase name with `key` folded to
// lowercase on the fly, in std::string's unsigned byte order.
int compareFolded(std::string_view name, std::string_view key) noexcept {
  const std::size_t n = std::min(name.size(), key.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<unsigned char>(name[i]);
    const auto b = static_cast<unsigned char>(asciiLower(key[i]));
    if (a != b) return a < b ? -1 : 1;
  }
  return name.size() == key.size() ? 0 : name.size() < key.size() ? -1 : 1;
}

}  // namespace

void Headers::set(std::string_view key, std::string value) {
  std::string name(key);
  for (char& c : name) c = asciiLower(c);
  // Fields usually arrive in sorted order; those just append.
  if (fields_.empty() || fields_.back().first < name) {
    fields_.emplace_back(std::move(name), std::move(value));
    return;
  }
  const auto it = std::lower_bound(
      fields_.begin(), fields_.end(), name,
      [](const Field& f, const std::string& n) { return f.first < n; });
  if (it != fields_.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    fields_.emplace(it, std::move(name), std::move(value));
  }
}

const Headers::Field* Headers::find(std::string_view key) const {
  const auto it = std::lower_bound(fields_.begin(), fields_.end(), key,
                                   [](const Field& f, std::string_view k) {
                                     return compareFolded(f.first, k) < 0;
                                   });
  if (it == fields_.end() || compareFolded(it->first, key) != 0) return nullptr;
  return &*it;
}

std::optional<std::string> Headers::get(std::string_view key) const {
  const Field* field = find(key);
  if (field == nullptr) return std::nullopt;
  return field->second;
}

bool Headers::has(std::string_view key) const { return find(key) != nullptr; }

std::string Request::host() const { return headers.get("host").value_or(""); }

namespace {

void appendText(Bytes& out, std::string_view text) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(text.data());
  out.insert(out.end(), p, p + text.size());
}

// "<a> <b> <c>\r\n", the header fields, a content-length line, the blank
// line and the body, written into one exactly sized buffer. A message that
// already carries content-length and has a body gets a second
// content-length line; forwarded messages put this on the wire.
Bytes serializeMessage(std::string_view a, std::string_view b,
                       std::string_view c, const Headers& headers,
                       const Bytes& body) {
  static constexpr std::string_view kLength = "content-length: ";
  char digits[24];
  const auto digits_len = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, body.size()).ptr - digits);
  const bool add_length = !body.empty() || !headers.has("content-length");

  std::size_t size = a.size() + b.size() + c.size() + 4 + 2 + body.size();
  for (const auto& [name, value] : headers.all())
    size += name.size() + value.size() + 4;
  if (add_length) size += kLength.size() + digits_len + 2;

  Bytes out;
  out.reserve(size);
  appendText(out, a);
  out.push_back(' ');
  appendText(out, b);
  out.push_back(' ');
  appendText(out, c);
  appendText(out, "\r\n");
  for (const auto& [name, value] : headers.all()) {
    appendText(out, name);
    appendText(out, ": ");
    appendText(out, value);
    appendText(out, "\r\n");
  }
  if (add_length) {
    appendText(out, kLength);
    appendText(out, std::string_view(digits, digits_len));
    appendText(out, "\r\n");
  }
  appendText(out, "\r\n");
  appendBytes(out, body);
  return out;
}

}  // namespace

Bytes Request::serialize() const {
  return serializeMessage(method, target, "HTTP/1.1", headers, body);
}

Bytes Response::serialize() const {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof digits, status).ptr;
  const std::string_view code(digits, static_cast<std::size_t>(end - digits));
  return serializeMessage("HTTP/1.1", code, reason, headers, body);
}

std::string statusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 429: return "Too Many Requests";
    case 502: return "Bad Gateway";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

namespace {

// Exactly three space-separated parts, the last an HTTP version.
bool parseStartLine(std::string_view line, Request& req) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos)
    return false;
  req.method.assign(line.substr(0, sp1));
  req.target.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
  return startsWith(line.substr(sp2 + 1), "HTTP/");
}

// "HTTP/x <status>[ <reason>]"; the reason may be empty or missing.
bool parseStartLine(std::string_view line, Response& resp) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || !startsWith(line, "HTTP/")) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  const std::string_view code = line.substr(sp1 + 1, sp2 - sp1 - 1);
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc{} || ptr != code.data() + code.size()) return false;
  resp.status = status;
  resp.reason.assign(sp2 == std::string_view::npos ? std::string_view{}
                                                   : line.substr(sp2 + 1));
  return true;
}

Headers& headersOf(Request& r) { return r.headers; }
Headers& headersOf(Response& r) { return r.headers; }
Bytes& bodyOf(Request& r) { return r.body; }
Bytes& bodyOf(Response& r) { return r.body; }
}  // namespace

template <typename Message>
bool MessageParser<Message>::tryParseHeader(std::size_t& used) {
  const std::string_view pending = asStringView(buffer_).substr(used);
  const auto end = pending.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (pending.size() > 64 * 1024) malformed_ = true;  // header bomb
    return false;
  }

  // Lines split on '\n' and trimmed; blank lines are skipped. The first
  // line left is the start line, every later one a "name: value" field.
  Message msg;
  const std::string_view head = pending.substr(0, end);
  bool first = true;
  for (std::size_t start = 0; start <= head.size();) {
    const std::size_t nl = std::min(head.find('\n', start), head.size());
    const std::string_view line =
        trimWhitespace(head.substr(start, nl - start));
    start = nl + 1;
    if (line.empty()) continue;
    if (first) {
      if (!parseStartLine(line, msg)) {
        malformed_ = true;
        return false;
      }
      first = false;
      continue;
    }
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      malformed_ = true;
      return false;
    }
    headersOf(msg).set(trimWhitespace(line.substr(0, colon)),
                       std::string(trimWhitespace(line.substr(colon + 1))));
  }
  if (first) {
    malformed_ = true;
    return false;
  }

  body_needed_ = 0;
  if (const auto cl = headersOf(msg).get("content-length")) {
    std::size_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), n);
    if (ec != std::errc{} || n > 256 * 1024 * 1024) {
      malformed_ = true;
      return false;
    }
    body_needed_ = n;
  }
  partial_ = std::move(msg);
  used += end + 4;
  return true;
}

template <typename Message>
std::vector<Message> MessageParser<Message>::feed(ByteView data) {
  std::vector<Message> complete;
  if (malformed_) return complete;
  appendBytes(buffer_, data);

  std::size_t used = 0;  // bytes of buffer_ consumed by this call
  while (!malformed_) {
    if (!partial_.has_value() && !tryParseHeader(used)) break;
    if (buffer_.size() - used < body_needed_) break;
    Message msg = std::move(*partial_);
    partial_.reset();
    const auto body = buffer_.begin() + static_cast<std::ptrdiff_t>(used);
    bodyOf(msg).assign(body, body + static_cast<std::ptrdiff_t>(body_needed_));
    used += body_needed_;
    body_needed_ = 0;
    complete.push_back(std::move(msg));
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(used));
  return complete;
}
template <typename Message>
void MessageParser<Message>::reset() {
  buffer_.clear();
  partial_.reset();
  body_needed_ = 0;
  malformed_ = false;
}

template class MessageParser<Request>;
template class MessageParser<Response>;

}  // namespace sc::http
