// HTTP/1.1 messages and an incremental parser (header block + Content-Length
// framing). Requests travel in plaintext unless wrapped in TLS, so the GFW's
// keyword filter can read Host lines and URLs on port 80 — one of the
// blocking mechanisms the paper lists.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/url.h"
#include "util/bytes.h"

namespace sc::http {

// Header fields as a flat vector sorted by name. Names are lowercased once
// on insert, so lookups fold only the query's case and iteration (and thus
// the serialized order) is byte order of the lowercased names.
class Headers {
 public:
  using Field = std::pair<std::string, std::string>;

  // Overwrites an existing field of the same name.
  void set(std::string_view key, std::string value);
  std::optional<std::string> get(std::string_view key) const;
  bool has(std::string_view key) const;
  const std::vector<Field>& all() const { return fields_; }

 private:
  const Field* find(std::string_view key) const;

  std::vector<Field> fields_;
};

struct Request {
  std::string method = "GET";
  std::string target = "/";  // origin-form, absolute-form, or authority-form
  Headers headers;
  Bytes body;

  std::string host() const;  // from Host header
  Bytes serialize() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  Bytes body;

  Bytes serialize() const;
};

// Incremental parser usable for both directions.
template <typename Message>
class MessageParser {
 public:
  // Feeds bytes; returns completed messages (possibly several on pipelining).
  std::vector<Message> feed(ByteView data);
  bool malformed() const noexcept { return malformed_; }
  void reset();

 private:
  // Parses the header block starting `used` bytes into buffer_ and moves
  // `used` past it; false when it is incomplete or malformed.
  bool tryParseHeader(std::size_t& used);

  Bytes buffer_;
  std::optional<Message> partial_;
  std::size_t body_needed_ = 0;
  bool malformed_ = false;
};

using RequestParser = MessageParser<Request>;
using ResponseParser = MessageParser<Response>;

std::string statusReason(int status);

}  // namespace sc::http
