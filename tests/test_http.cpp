#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "helpers.h"
#include "http/client.h"
#include "http/origin.h"
#include "http/pac.h"
#include "http/server.h"
#include "http/socks.h"
#include "http/tls.h"
#include "http/url.h"
#include "sim/rng.h"
#include "util/hash.h"
#include "util/strings.h"

namespace sc::http {
namespace {

using test::MiniWorld;

// ---- URL ----

TEST(Url, ParsesCommonForms) {
  auto u = Url::parse("https://scholar.google.com/citations?x=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->scheme, "https");
  EXPECT_EQ(u->host, "scholar.google.com");
  EXPECT_EQ(u->port, 443);
  EXPECT_EQ(u->path, "/citations?x=1");

  u = Url::parse("http://10.3.0.1:8080/proxy.pac");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/proxy.pac");

  u = Url::parse("http://example.com");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->path, "/");
  EXPECT_EQ(u->port, 80);
}

TEST(Url, RejectsMalformed) {
  EXPECT_FALSE(Url::parse("ftp://x.com/").has_value());
  EXPECT_FALSE(Url::parse("no-scheme.com/x").has_value());
  EXPECT_FALSE(Url::parse("http://:80/").has_value());
  EXPECT_FALSE(Url::parse("http://host:0/").has_value());
  EXPECT_FALSE(Url::parse("http://host:99999/").has_value());
}

TEST(Url, RoundTripsToString) {
  const auto u = Url::parse("https://a.b:8443/p/q");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->str(), "https://a.b:8443/p/q");
  EXPECT_EQ(Url::parse("https://a.b/x")->str(), "https://a.b/x");
}

// Edge cases after openappsec's url_parser_ut, plus the authority shapes a
// client's absolute-form target could use to smuggle bytes into the host.
TEST(Url, EdgeCases) {
  EXPECT_FALSE(Url::parse("").has_value());
  EXPECT_FALSE(Url::parse("scholar.google.com").has_value());  // no scheme

  auto u = Url::parse("http://this_is_not_https_site.com/something");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "this_is_not_https_site.com");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/something");

  u = Url::parse("https://a58efa94-1878332922.eu-west-1.elb.amazonaws.com");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "a58efa94-1878332922.eu-west-1.elb.amazonaws.com");
  EXPECT_EQ(u->port, 443);
  EXPECT_EQ(u->path, "/");

  // The authority ends at '?' and '#', not only at '/'.
  u = Url::parse("http://a.b?x=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "a.b");
  EXPECT_EQ(u->path, "/?x=1");
  u = Url::parse("http://evil.example#.scholar.google.com/");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "evil.example");
  EXPECT_EQ(u->path, "/#.scholar.google.com/");

  // Userinfo, a second port and whitespace never reach the host.
  EXPECT_FALSE(Url::parse("http://user@a.b/").has_value());
  EXPECT_FALSE(Url::parse("http://a.b:80:90/").has_value());
  EXPECT_FALSE(Url::parse("http://a b/").has_value());
  EXPECT_FALSE(Url::parse("http://a.b\t/").has_value());

  for (const char* text :
       {"http://a.b?x=1", "https://a.b:8443/p?q#f", "http://10.3.0.1:8080/x",
        "https://scholar.google.com/citations?user=abc"}) {
    const auto parsed = Url::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const auto again = Url::parse(parsed->str());
    ASSERT_TRUE(again.has_value()) << text;
    EXPECT_EQ(again->scheme, parsed->scheme) << text;
    EXPECT_EQ(again->host, parsed->host) << text;
    EXPECT_EQ(again->port, parsed->port) << text;
    EXPECT_EQ(again->path, parsed->path) << text;
  }
}

// A CONNECT target is a bare authority: the path, query and fragment
// delimiters Url::parse splits on are host bytes here, so they must fail,
// as must a backslash or a control byte.
TEST(Url, AuthorityFormRejectsWhatAHostCannotHold) {
  auto a = parseAuthority("scholar.google.com:443", 443);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->host, "scholar.google.com");
  EXPECT_EQ(a->port, 443);
  a = parseAuthority("a.b", 8443);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->port, 8443);

  for (const std::string_view text : std::initializer_list<std::string_view>{
           "evil.example#.scholar.google.com:443",
           "user@evil.example/.scholar.google.com:443",
           "a.b?.scholar.google.com", "scholar.google.com:443x9",
           "scholar.google.com:443:80", ":443", "a.b:", "a.b:0", "a.b:65536",
           "a b:443", "evil.example\\.scholar.google.com:443",
           {"evil.example\0.scholar.google.com:443", 36}, "a\x7f.b:443"})
    EXPECT_FALSE(parseAuthority(text, 443).has_value()) << text;
}

// ---- message codec ----

TEST(HttpMessage, RequestSerializeParseRoundTrip) {
  Request req;
  req.method = "POST";
  req.target = "/submit";
  req.headers.set("Host", "example.com");
  req.body = toBytes("payload");

  RequestParser parser;
  const auto msgs = parser.feed(req.serialize());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].method, "POST");
  EXPECT_EQ(msgs[0].target, "/submit");
  EXPECT_EQ(msgs[0].host(), "example.com");
  EXPECT_EQ(msgs[0].body, toBytes("payload"));
}

TEST(HttpMessage, HeaderKeysAreCaseInsensitive) {
  Request req;
  req.headers.set("HOST", "x");
  EXPECT_EQ(req.headers.get("host").value_or(""), "x");
  EXPECT_TRUE(req.headers.has("Host"));
}

TEST(HttpMessage, ParserHandlesBytewiseDelivery) {
  Response resp;
  resp.status = 200;
  resp.body = toBytes("hello body");
  const Bytes wire = resp.serialize();

  ResponseParser parser;
  std::vector<Response> got;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto out = parser.feed(ByteView(wire.data() + i, 1));
    for (auto& m : out) got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, 200);
  EXPECT_EQ(got[0].body, toBytes("hello body"));
}

TEST(HttpMessage, ParserHandlesPipelinedMessages) {
  Request a, b;
  a.target = "/one";
  b.target = "/two";
  Bytes wire = a.serialize();
  appendBytes(wire, b.serialize());
  RequestParser parser;
  const auto msgs = parser.feed(wire);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].target, "/one");
  EXPECT_EQ(msgs[1].target, "/two");
}

TEST(HttpMessage, ParserFlagsMalformedStartLine) {
  RequestParser parser;
  parser.feed(toBytes("NONSENSE\r\n\r\n"));
  EXPECT_TRUE(parser.malformed());
}

TEST(HttpMessage, ResponseStatusLineParses) {
  ResponseParser parser;
  const auto msgs =
      parser.feed(toBytes("HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n"));
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].status, 404);
  EXPECT_EQ(msgs[0].reason, "Not Found");
}

// ---- message goldens ----

// Exact wire bytes, pinned before the flat-header rewrite: names set out of
// order and in mixed case come out lowercased in byte order, an overwritten
// name keeps its last value, and a message that already carries
// content-length gets a second content-length line when it has a body.
TEST(HttpMessage, SerializeGoldenBytes) {
  Request req;
  req.method = "POST";
  req.target.assign("/scholar?q=censorship");
  req.headers.set("User-Agent", "sc-test/1.0");
  req.headers.set("Host", "scholar.google.com");
  req.headers.set("accept", "text/html");
  req.headers.set("X-Trace", "7");
  req.headers.set("HOST", "scholar.google.com.hk");
  req.body = toBytes("q=1");
  EXPECT_EQ(toString(req.serialize()),
            "POST /scholar?q=censorship HTTP/1.1\r\n"
            "accept: text/html\r\n"
            "host: scholar.google.com.hk\r\n"
            "user-agent: sc-test/1.0\r\n"
            "x-trace: 7\r\n"
            "content-length: 3\r\n"
            "\r\n"
            "q=1");

  Request bare;
  EXPECT_EQ(toString(bare.serialize()),
            "GET / HTTP/1.1\r\ncontent-length: 0\r\n\r\n");

  Request explicit_empty;
  explicit_empty.headers.set("Content-Length", "0");
  explicit_empty.headers.set("Connection", "close");
  EXPECT_EQ(toString(explicit_empty.serialize()),
            "GET / HTTP/1.1\r\n"
            "connection: close\r\n"
            "content-length: 0\r\n"
            "\r\n");

  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.headers.set("Server", "sc-httpd/1.0");
  resp.headers.set("Content-Length", "5");
  resp.headers.set("ETag", "\"v1\"");
  resp.body = toBytes("hello");
  EXPECT_EQ(toString(resp.serialize()),
            "HTTP/1.1 404 Not Found\r\n"
            "content-length: 5\r\n"
            "etag: \"v1\"\r\n"
            "server: sc-httpd/1.0\r\n"
            "content-length: 5\r\n"
            "\r\n"
            "hello");

  Response no_reason;
  no_reason.status = 204;
  no_reason.reason.clear();
  no_reason.headers.set("content-length", "0");
  EXPECT_EQ(toString(no_reason.serialize()),
            "HTTP/1.1 204 \r\ncontent-length: 0\r\n\r\n");
}

TEST(HttpMessage, HeadersStaySortedAndIgnoreCase) {
  Headers h;
  h.set("Zeta", "1");
  h.set("alpha", "2");
  h.set("X-\xC3\xA9t\xC3\xA9", "3");
  h.set("_Under", "4");
  h.set("Content-Type", "text/html");
  h.set("ALPHA", "5");
  h.set("b", "6");

  std::vector<std::string> names;
  for (const auto& [name, value] : h.all()) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names,
            (std::vector<std::string>{"_under", "alpha", "b", "content-type",
                                      "x-\xC3\xA9t\xC3\xA9", "zeta"}));

  EXPECT_EQ(h.get("aLpHa"), std::optional<std::string>("5"));
  EXPECT_EQ(h.get("CONTENT-TYPE"), std::optional<std::string>("text/html"));
  EXPECT_EQ(h.get("X-\xC3\xA9T\xC3\xA9"), std::optional<std::string>("3"));
  EXPECT_TRUE(h.has("_UNDER"));
  EXPECT_TRUE(h.has("zeta"));
  EXPECT_FALSE(h.has("zet"));
  EXPECT_FALSE(h.has("zetas"));
  EXPECT_FALSE(h.has(""));
  EXPECT_EQ(h.get("content"), std::nullopt);
}

// ---- parser robustness ----

void addText(Fnv1a& h, std::string_view s) {
  h.add(static_cast<std::uint64_t>(s.size()));
  h.add(s);
}

void addStartLine(Fnv1a& h, const Request& r) {
  addText(h, r.method);
  addText(h, r.target);
}

void addStartLine(Fnv1a& h, const Response& r) {
  h.add(static_cast<std::uint32_t>(r.status));
  addText(h, r.reason);
}

template <typename Message>
void addMessage(Fnv1a& h, const Message& m) {
  addStartLine(h, m);
  h.add(static_cast<std::uint64_t>(m.headers.all().size()));
  for (const auto& [name, value] : m.headers.all()) {
    addText(h, name);
    addText(h, value);
  }
  addText(h, asStringView(m.body));
}

// Every header but content-length, which re-serializing rewrites.
std::vector<std::pair<std::string, std::string>> fieldsButLength(
    const Headers& headers) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, value] : headers.all())
    if (name != "content-length") out.emplace_back(name, value);
  return out;
}

bool sameStartLine(const Request& a, const Request& b) {
  return a.method == b.method && a.target == b.target;
}

bool sameStartLine(const Response& a, const Response& b) {
  return a.status == b.status && a.reason == b.reason;
}

// serialize -> parse gives the message back. Only content-length may change:
// with a body the serializer's own line (the last one) wins on re-parse.
template <typename Message>
::testing::AssertionResult roundTrips(const Message& m) {
  MessageParser<Message> parser;
  const auto again = parser.feed(m.serialize());
  if (parser.malformed() || again.size() != 1)
    return ::testing::AssertionFailure()
           << "re-parse gave " << again.size() << " messages, malformed "
           << parser.malformed();
  const Message& b = again.front();
  const std::string length =
      m.body.empty()
          ? std::string(m.headers.get("content-length").value_or("0"))
          : std::to_string(m.body.size());
  if (!sameStartLine(m, b) || b.body != m.body ||
      fieldsButLength(b.headers) != fieldsButLength(m.headers) ||
      b.headers.get("content-length") != std::optional<std::string>(length))
    return ::testing::AssertionFailure() << "fields changed on round trip";
  return ::testing::AssertionSuccess();
}

std::vector<std::string> adversarialHttpCorpus() {
  const std::string big(64 * 1024 + 100, 'a');
  return {
      "",
      "\r\n\r\n",
      "GET / HTTP/1.1\r\nHost: a\r\n\r\n",
      "GET  / HTTP/1.1\r\n\r\n",
      "GET /  HTTP/1.1\r\n\r\n",
      "GET / HTTP/1.1 extra\r\n\r\n",
      "GET / FTP/1.1\r\n\r\n",
      "GET\t/ HTTP/1.1\r\n\r\n",
      "GET / HTTP/1.1\r\nHost:\tx\t\r\nX-A : \t b \r\n\r\n",
      "GET / HTTP/1.1\nHost: a\nAccept: */*\r\n\r\n",
      "GET / HTTP/1.1\n\n",
      "\r\n \r\n\t\r\nGET /x HTTP/1.1\r\nHost: a\r\n\r\n",
      "GET / HTTP/1.1\r\n\r\n\r\n",
      "GET / HTTP/1.1\r\nHost: a\r\nHOST: b\r\nhost: c\r\nX-Dup: 1\r\n"
      "x-dup: 2\r\nX-DUP: 3\r\n\r\n",
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
      "GET / HTTP/1.1\r\n: empty-name\r\nEmpty-Value:\r\n:\r\n\r\n",
      "GET / HTTP/1.1\r\nX-\xC3\xA9: caf\xC3\xA9\r\nA:b:c\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 5abc\r\n\r\nhello",
      "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length:  3 \r\n\r\nxyz",
      "POST / HTTP/1.1\r\nContent-Length: 314572800\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 268435456\r\n\r\npartial",
      "POST / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
      "POST / HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 2\r\n\r\nabcd",
      "GET / HTTP/1.1\r\nX-Big: " + big + "\r\n\r\n",
      "GET / HTTP/1.1\r\nX-Big: " + big,
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n"
      "\r\nPUT /c HTTP/1.0\r\nContent-Length: 1\r\n\r\nz",
      "GET /a HTTP/1.1\r\n\r\nNONSENSE\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
      "HTTP/1.1 204\r\n\r\n",
      "HTTP/1.1 200 \r\n\r\n",
      "HTTP/1.1  200 OK\r\n\r\n",
      "HTTP/1.0 404 Not  Found \r\n\r\n",
      "HTTP/1.1 2x0 OK\r\n\r\n",
      "HTTP/1.1 99999999999 Big\r\n\r\n",
      "HTTP/1.1 -1 Negative\r\n\r\n",
      "HTTP/1.1\r\n\r\n",
      "HTTPS 200 OK\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 304 Not Modified"
      "\r\nETag: \"x\"\r\n\r\nHTTP/1.1 500\r\nContent-Length: 1\r\n\r\n!",
  };
}

// Request-targets holding a control byte: a bare CR would reach the request
// line a proxy forwards. Part of the digested corpus, but not of the
// mutation seeds, which start from messages the parser mostly accepts.
std::vector<std::string> controlByteRequests() {
  return {
      "GET http://scholar.google.com/a\rb HTTP/1.1\r\n\r\n",
      "GET http://scholar.google.com/a\x01" "b HTTP/1.1\r\n\r\n",
      "GET http://scholar.google.com/a\x7f" "b HTTP/1.1\r\n\r\n",
      std::string("GET /a\0b HTTP/1.1\r\n\r\n", 21),
  };
}

// Header fields and reason phrases holding a control byte other than HTAB:
// the parser used to keep a bare CR there, and serialize() wrote it on to
// the next hop. Kept out of the mutation seeds like controlByteRequests().
std::vector<std::string> controlByteFields() {
  return {
      "GET / HTTP/1.1\r\nX-A: a\rb\r\n\r\n",
      "GET / HTTP/1.1\r\nX-A: a\x01" "b\r\n\r\n",
      "GET / HTTP/1.1\r\nX\x7f" "A: b\r\n\r\n",
      std::string("GET / HTTP/1.1\r\nX-A: a\0b\r\n\r\n", 28),
      "HTTP/1.1 200 O\rK\r\n\r\n",
      "HTTP/1.1 200 O\x1b" "K\r\n\r\n",
      "HTTP/1.1 200 OK\r\nSet-Cookie: a=1\r\x0b" "b\r\n\r\n",
  };
}

// Digest of everything a parser reports for each corpus entry, fed whole,
// byte by byte and in 7-byte chunks.
template <typename Message>
std::uint64_t corpusParseDigest(const std::vector<std::string>& corpus) {
  Fnv1a h;
  for (const std::string& wire : corpus) {
    for (const std::size_t chunk : {std::max<std::size_t>(wire.size(), 1),
                                    std::size_t{1}, std::size_t{7}}) {
      MessageParser<Message> parser;
      std::uint64_t messages = 0;
      for (std::size_t off = 0; off < wire.size(); off += chunk) {
        const std::string_view part =
            std::string_view(wire).substr(off, chunk);
        for (const Message& m : parser.feed(ByteView(
                 reinterpret_cast<const std::uint8_t*>(part.data()),
                 part.size()))) {
          addMessage(h, m);
          ++messages;
        }
      }
      h.add(messages);
      h.addByte(parser.malformed() ? 1 : 0);
    }
  }
  return h.value();
}

// Pinned before the view-based parser rewrite.
TEST(HttpParser, AdversarialCorpusDigest) {
  auto corpus = adversarialHttpCorpus();
  for (std::string& wire : controlByteRequests())
    corpus.push_back(std::move(wire));
  for (std::string& wire : controlByteFields())
    corpus.push_back(std::move(wire));
  EXPECT_EQ(corpusParseDigest<Request>(corpus), 0x9cad4ff690b41f31ULL);
  EXPECT_EQ(corpusParseDigest<Response>(corpus), 0xbb600140be62d3a4ULL);
}

TEST(HttpParser, RefusesControlBytesInTheRequestTarget) {
  for (const std::string& wire : controlByteRequests()) {
    RequestParser parser;
    EXPECT_TRUE(parser.feed(toBytes(wire)).empty()) << wire;
    EXPECT_TRUE(parser.malformed()) << wire;
    const std::string_view target =
        std::string_view(wire).substr(4, wire.find(" HTTP/") - 4);
    EXPECT_FALSE(Url::parse(target).has_value()) << wire;
  }
}

TEST(HttpParser, RefusesControlBytesInFieldsAndReasons) {
  for (const std::string& wire : controlByteFields()) {
    RequestParser requests;
    ResponseParser responses;
    EXPECT_TRUE(requests.feed(toBytes(wire)).empty()) << wire;
    EXPECT_TRUE(responses.feed(toBytes(wire)).empty()) << wire;
    EXPECT_TRUE(requests.malformed() && responses.malformed()) << wire;
  }
  // HTAB stays legal in a value and in a reason, and round-trips.
  RequestParser requests;
  const auto req =
      requests.feed(toBytes("GET / HTTP/1.1\r\nX-A: a\tb\r\n\r\n"));
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0].headers.get("x-a"), std::optional<std::string>("a\tb"));
  EXPECT_TRUE(roundTrips(req[0]));
  ResponseParser responses;
  const auto resp = responses.feed(toBytes("HTTP/1.1 200 O\tK\r\n\r\n"));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].reason, "O\tK");
  EXPECT_TRUE(roundTrips(resp[0]));
}

// Holds a control byte other than HTAB in a header name or value.
bool anyFieldControlByte(const Headers& headers) {
  for (const auto& [name, value] : headers.all())
    if (hasFieldControlByte(name) || hasFieldControlByte(value)) return true;
  return false;
}

// Seeded byte mutations of valid messages, fed in random chunks: nothing
// crashes, and every message the parser accepts survives a round trip.
TEST(HttpParser, MutatedMessagesRoundTrip) {
  std::vector<Bytes> seeds;
  for (const std::string& wire : adversarialHttpCorpus())
    if (wire.size() < 1024) seeds.push_back(toBytes(wire));
  Request post;
  post.method = "POST";
  post.target.assign("/citations?user=abc");
  post.headers.set("Host", "scholar.google.com");
  post.headers.set("Cookie", "GSP=LM=1500000000");
  post.body = toBytes("form=1&x=2");
  seeds.push_back(post.serialize());
  Response page;
  page.headers.set("ETag", "\"home\"");
  page.headers.set("Connection", "close");
  page.body = toBytes("<html>scholar</html>");
  seeds.push_back(page.serialize());
  // What the Browser, the origin and the domestic proxy put on the wire: a
  // revisit, the HTTPS redirect, a CONNECT and its answer, a 304.
  Request revisit;
  revisit.target.assign("/scholar?q=censorship");
  revisit.headers.set("host", "scholar.google.com");
  revisit.headers.set("user-agent", "chrome-56");
  revisit.headers.set("if-none-match", "\"home\"");
  seeds.push_back(revisit.serialize());
  Response redirect;
  redirect.status = 302;
  redirect.reason = statusReason(302);
  redirect.headers.set("location", "https://scholar.google.com/");
  seeds.push_back(redirect.serialize());
  Request connect;
  connect.method = "CONNECT";
  connect.target.assign("scholar.google.com:443");
  connect.headers.set("host", "scholar.google.com:443");
  seeds.push_back(connect.serialize());
  Response established;
  established.reason = "Connection Established";
  seeds.push_back(established.serialize());
  Response not_modified;
  not_modified.status = 304;
  not_modified.reason = statusReason(304);
  not_modified.headers.set("etag", "\"home\"");
  seeds.push_back(not_modified.serialize());

  static constexpr char kSpice[] = " \t\r\n:0123456789AaHTP/-\0\xff";
  sim::Rng rng(0x5c0ab1eULL);
  std::uint64_t accepted = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes wire = test::mutate(
        seeds, std::string_view(kSpice, sizeof(kSpice) - 1), rng);
    RequestParser requests;
    ResponseParser responses;
    for (std::size_t off = 0; off < wire.size();) {
      const std::size_t n =
          std::min<std::size_t>(wire.size() - off, 1 + rng.uniformU64(64));
      const ByteView part(wire.data() + off, n);
      for (const Request& m : requests.feed(part)) {
        ++accepted;
        ASSERT_FALSE(hasControlByte(m.method + m.target)) << "iteration " << i;
        ASSERT_FALSE(anyFieldControlByte(m.headers)) << "iteration " << i;
        ASSERT_TRUE(roundTrips(m)) << "iteration " << i;
      }
      for (const Response& m : responses.feed(part)) {
        ++accepted;
        ASSERT_FALSE(hasFieldControlByte(m.reason)) << "iteration " << i;
        ASSERT_FALSE(anyFieldControlByte(m.headers)) << "iteration " << i;
        ASSERT_TRUE(roundTrips(m)) << "iteration " << i;
      }
      off += n;
    }
  }
  EXPECT_GT(accepted, static_cast<std::uint64_t>(kIterations) / 4);
}

// ---- URL and CONNECT authority robustness ----

std::vector<std::string> hostileAuthorityCorpus() {
  const std::string big(64 * 1024, 'a');
  return {
      "",
      ":",
      "::",
      ":443",
      "a:",
      "a:0",
      "a:1",
      "a:65535",
      "a:65536",
      "a:99999999999999999999",
      "a:-1",
      "a:+80",
      "a: 80",
      "a:80 ",
      "a:0x50",
      "a:\xef\xbc\x98\xef\xbc\x90",
      "a:0080",
      "[::1]:443",
      "[::1]",
      "scholar.google.com",
      "scholar.google.com:443",
      "scholar.google.com.:443",
      "scholar.google.com:443:443",
      "scholar.google.com:443/",
      "scholar.google.com.evil.example:443",
      "evil.example#.scholar.google.com:443",
      "evil.example?.scholar.google.com:443",
      "evil.example/.scholar.google.com:443",
      "evil.example\\.scholar.google.com:443",
      "user@scholar.google.com:443",
      "user:pass@scholar.google.com:443",
      "scholar.google.com:443@evil.example",
      std::string("scholar.google.com\0.evil.example:443", 36),
      "scholar.google.com\r\nHost: evil.example:443",
      "scholar.google.com\t:443",
      "scholar.google.com\v:443",
      "a b:443",
      "%2e%2e:443",
      ".:443",
      "\xff\xfe:443",
      big + ":443",
      big,
      "http://",
      "http:///",
      "http://a",
      "http://a:80",
      "http://a:/",
      "http://a:0/",
      "http://a:65536/",
      "http://:80/",
      "https://a:443/",
      "https://a:80/",
      "HTTP://a/",
      "ftp://a/",
      "http:/a/",
      "http//a/",
      "://a/",
      "http://http://a/",
      "http://a:8080:80/",
      "http://user@a/",
      "http://a@b/",
      "http://a#@b/",
      "http://a?@b/",
      "http://a/#frag",
      "http://a?q",
      "http://a#f",
      "http://a/p?q#f",
      "http://[::1]/",
      "http://a b/",
      "http:// a/",
      "http://a\tb/",
      "http://a\r\n/",
      "http://a/\r\nHost: evil.example",
      "http://scholar.google.com.evil.example/",
      "http://evil.example#.scholar.google.com/",
      "https://evil.example\\.scholar.google.com/",
      "https://scholar.google.com:8443/citations?user=abc#x",
      "https://" + big + "/",
      "http://scholar.google.com/a\rb",
      "http://scholar.google.com/a\nb",
      std::string("http://scholar.google.com/a\0b", 29),
      "http://scholar.google.com/a\x01" "b",
      "http://scholar.google.com/a\x7f" "b",
      "http://scholar.google.com/?q=\x1f",
      "http://scholar.google.com/a b",
  };
}

// Whether an accepted authority is one a suffix match can trust: a
// non-empty host free of userinfo, port, path, query and fragment
// delimiters, backslashes, whitespace and control bytes, and a port in
// [1, 65535].
::testing::AssertionResult wellFormed(std::string_view host, net::Port port) {
  const bool bad_byte = std::any_of(host.begin(), host.end(), [](char c) {
    const auto b = static_cast<unsigned char>(c);
    return b < 0x20 || b == 0x7f || std::isspace(b) != 0 ||
           std::string_view("@:/?#\\").find(c) != std::string_view::npos;
  });
  if (host.empty() || bad_byte)
    return ::testing::AssertionFailure() << "host '" << host << "'";
  if (port == 0) return ::testing::AssertionFailure() << "port 0";
  return ::testing::AssertionSuccess();
}

void addAuthority(Fnv1a& h, const std::optional<Authority>& a) {
  h.addByte(a.has_value() ? 1 : 0);
  if (!a.has_value()) return;
  addText(h, a->host);
  h.add(static_cast<std::uint16_t>(a->port));
}

void addUrl(Fnv1a& h, const std::optional<Url>& u) {
  h.addByte(u.has_value() ? 1 : 0);
  if (!u.has_value()) return;
  addText(h, u->scheme);
  addText(h, u->host);
  h.add(static_cast<std::uint16_t>(u->port));
  addText(h, u->path);
}

// Everything parseAuthority reports for each entry, as a CONNECT target
// (no default port) and with a default, then everything Url::parse
// reports. Pinned when the corpus was written.
TEST(Url, HostileCorpusDigest) {
  Fnv1a h;
  for (const std::string& text : hostileAuthorityCorpus()) {
    const auto connect = parseAuthority(text, 0);
    const auto with_default = parseAuthority(text, 443);
    const auto url = Url::parse(text);
    if (connect.has_value() && connect->port != 0) {
      EXPECT_TRUE(wellFormed(connect->host, connect->port)) << text;
    }
    if (with_default.has_value()) {
      EXPECT_TRUE(wellFormed(with_default->host, with_default->port)) << text;
    }
    if (url.has_value()) {
      EXPECT_TRUE(wellFormed(url->host, url->port)) << text;
      EXPECT_FALSE(hasControlByte(url->path)) << text;
      EXPECT_EQ(url->path.find(' '), std::string::npos) << text;
    }
    addAuthority(h, connect);
    addAuthority(h, with_default);
    addUrl(h, url);
  }
  EXPECT_EQ(h.value(), 0x11c083ab202876c8ULL);
}

// Seeded mutations of CONNECT targets and URLs: nothing crashes, whatever
// is accepted is well formed, and an accepted URL survives str() -> parse.
TEST(Url, MutatedAuthoritiesStayWellFormed) {
  std::vector<Bytes> seeds;
  for (const std::string& text : hostileAuthorityCorpus())
    if (text.size() < 1024) seeds.push_back(toBytes(text));

  static constexpr char kSpice[] = "@:/?#[]% \t\r\n.0123456789ahpst\0\xff";
  sim::Rng rng(0x0a7b0e11ULL);
  std::uint64_t connects = 0, urls = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes bytes = test::mutate(
        seeds, std::string_view(kSpice, sizeof(kSpice) - 1), rng);
    const std::string_view text = asStringView(bytes);
    if (const auto a = parseAuthority(text, 0);
        a.has_value() && a->port != 0) {
      ++connects;
      ASSERT_TRUE(wellFormed(a->host, a->port)) << "iteration " << i;
    }
    if (const auto a = parseAuthority(text, 443); a.has_value()) {
      ASSERT_TRUE(wellFormed(a->host, a->port)) << "iteration " << i;
    }
    const auto url = Url::parse(text);
    if (!url.has_value()) continue;
    ++urls;
    ASSERT_TRUE(wellFormed(url->host, url->port)) << "iteration " << i;
    ASSERT_FALSE(hasControlByte(url->path)) << "iteration " << i;
    ASSERT_EQ(url->path.find(' '), std::string::npos) << "iteration " << i;
    const auto again = Url::parse(url->str());
    ASSERT_TRUE(again.has_value()) << "iteration " << i;
    EXPECT_EQ(again->scheme, url->scheme) << "iteration " << i;
    EXPECT_EQ(again->host, url->host) << "iteration " << i;
    EXPECT_EQ(again->port, url->port) << "iteration " << i;
    EXPECT_EQ(again->path, url->path) << "iteration " << i;
  }
  EXPECT_GT(connects, static_cast<std::uint64_t>(kIterations) / 40);
  EXPECT_GT(urls, static_cast<std::uint64_t>(kIterations) / 40);
}

// ---- TLS ----

struct TlsWorld : MiniWorld {
  TlsAcceptor acceptor{"site.test", sim};
  transport::TcpListener::Ptr listener;
  TlsStream::Ptr server_tls;
  Bytes server_received;

  TlsWorld() {
    listener = server.tcpListen(443, [this](transport::TcpSocket::Ptr sock) {
      acceptor.accept(sock, [this](TlsStream::Ptr tls) {
        server_tls = tls;
        if (tls == nullptr) return;
        tls->setOnData([this](ByteView data) {
          appendBytes(server_received, data);
          server_tls->send(toBytes("pong"));
        });
      });
    });
  }

  TlsStream::Ptr connectTls(TlsSessionCache* cache,
                            const std::string& fingerprint = "chrome-56") {
    TlsStream::Ptr result;
    bool done = false;
    client.tcpConnect(
        net::Endpoint{server_node.primaryIp(), 443},
        [&](const auto& conn) {
          const bool ok = conn != nullptr;
          if (!ok) {
            done = true;
            return;
          }
          TlsClientOptions opts;
          opts.sni = "site.test";
          opts.fingerprint = fingerprint;
          TlsStream::clientHandshake(conn, sim, opts, cache,
                                     [&](TlsStream::Ptr tls) {
                                       result = tls;
                                       done = true;
                                     });
        });
    runUntilDone([&] { return done; });
    return result;
  }
};

TEST(Tls, HandshakeEstablishesAndCarriesData) {
  TlsWorld w;
  auto tls = w.connectTls(nullptr);
  ASSERT_NE(tls, nullptr);
  EXPECT_TRUE(tls->connected());
  EXPECT_FALSE(tls->resumed());

  Bytes reply;
  tls->setOnData([&](ByteView data) { appendBytes(reply, data); });
  tls->send(toBytes("ping"));
  w.runUntilDone([&] { return reply.size() >= 4; });
  EXPECT_EQ(toString(reply), "pong");
  EXPECT_EQ(toString(w.server_received), "ping");
}

TEST(Tls, SessionTicketEnablesResumption) {
  TlsWorld w;
  TlsSessionCache cache;
  auto first = w.connectTls(&cache);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->resumed());
  first->close();

  auto second = w.connectTls(&cache);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(second->resumed());
}

TEST(Tls, ResumptionIsFasterThanFullHandshake) {
  TlsWorld w;
  TlsSessionCache cache;
  sim::Time t0 = w.sim.now();
  auto first = w.connectTls(&cache);
  const sim::Time full_time = w.sim.now() - t0;
  ASSERT_NE(first, nullptr);
  first->close();

  t0 = w.sim.now();
  auto second = w.connectTls(&cache);
  const sim::Time resumed_time = w.sim.now() - t0;
  ASSERT_NE(second, nullptr);
  EXPECT_LT(resumed_time, full_time - 50 * sim::kMillisecond);
}

TEST(Tls, WireBytesAreNotPlaintext) {
  // Tap the border link and verify app data is unreadable but the SNI is.
  struct Tap : net::PacketFilter {
    Bytes all;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      appendBytes(all, pkt.payload);
      return Verdict::kPass;
    }
  };
  TlsWorld w;
  Tap tap;
  w.world.borderLink().addFilter(&tap);
  auto tls = w.connectTls(nullptr);
  ASSERT_NE(tls, nullptr);
  tls->send(toBytes("super secret scholar query"));
  w.runUntilDone([&] { return !w.server_received.empty(); });
  const std::string wire = toString(tap.all);
  EXPECT_EQ(wire.find("super secret scholar query"), std::string::npos);
  EXPECT_NE(wire.find("site.test"), std::string::npos);  // SNI in clear
}

// App data of `n` bytes that differs per size.
Bytes appPattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) * 7 + n);
  return b;
}

// One TLS session across the border: a full handshake, then app data of
// 0, 1, 1400, 16384, 16385 and 40000 bytes from the client (two sizes cross
// the 16 KiB record split), each record answered by the server's "pong".
struct TlsSessionWire {
  test::BorderPayloads tap;
  std::size_t client_got = 0;
};

void runTlsSession(TlsSessionWire& out) {
  TlsWorld w;
  w.world.borderLink().addFilter(&out.tap);
  auto tls = w.connectTls(nullptr);
  ASSERT_NE(tls, nullptr);
  tls->setOnData([&out](ByteView d) { out.client_got += d.size(); });
  std::size_t sent = 0;
  for (const std::size_t n : {0, 1, 1400, 16384, 16385, 40000}) {
    tls->send(appPattern(n));
    sent += n;
    w.runUntilDone([&] { return w.server_received.size() == sent; });
  }
  w.runUntilDone([&] { return out.client_got == 4 * 8; });  // 8 records
  EXPECT_EQ(w.server_received.size(), sent);
}

// Pinned before the record path stopped copying: every segment of the
// session's handshake and records, both ways.
TEST(Tls, RecordWireBytesGolden) {
  TlsSessionWire s;
  runTlsSession(s);
  EXPECT_EQ(s.tap.by_dir[0].size(), 78534u);
  EXPECT_EQ(s.tap.by_dir[1].size(), 146u);
  EXPECT_EQ(s.tap.wire.value(), 0x195cc046f5dd2492ULL);
}

// What one TLS end does with `wire` arriving from its peer in pieces of
// `chunk` bytes (0: random pieces from `rng`): the bytes it sends back, how
// the handshake ends and the plaintext it hands up, then what a hang-up
// does. The simulator and acceptor are shared so the mutation loop stays
// cheap; their state only advances the random draws.
struct TlsFeedResult {
  int outcome = 0;  // 0 pending, 1 established, 2 failed
  Bytes sent;
  Bytes plain;
};

TlsFeedResult feedTls(sim::Simulator& sim, TlsAcceptor& acceptor, bool server,
                      ByteView wire, std::size_t chunk, sim::Rng& rng) {
  TlsFeedResult r;
  auto raw = std::make_shared<test::MemoryStream>();
  TlsStream::Ptr tls;
  const auto on_handshake = [&](TlsStream::Ptr t) {
    r.outcome = t != nullptr ? 1 : 2;
    tls = std::move(t);
    if (tls != nullptr)
      tls->setOnData([&r](ByteView d) { appendBytes(r.plain, d); });
  };
  if (server) {
    acceptor.accept(raw, on_handshake);
  } else {
    TlsClientOptions opts;
    opts.sni = "site.test";
    TlsStream::clientHandshake(raw, sim, opts, nullptr, on_handshake);
  }
  if (chunk == 0) {
    test::feedInRandomChunks(wire, 2048, rng,
                             [&](ByteView part) { raw->deliver(part); });
  } else {
    for (std::size_t off = 0; off < wire.size(); off += chunk)
      raw->deliver(wire.subspan(off, std::min(chunk, wire.size() - off)));
  }
  r.sent = std::move(raw->sent);
  raw->hangUp();  // drops a pending handshake's hold on the TLS end
  return r;
}

void addTlsFeed(Fnv1a& h, const TlsFeedResult& r) {
  h.addByte(static_cast<std::uint8_t>(r.outcome));
  h.add(static_cast<std::uint64_t>(r.sent.size()));
  h.add(asStringView(r.sent));
  h.add(static_cast<std::uint64_t>(r.plain.size()));
  h.add(asStringView(r.plain));
}

Bytes tlsRecord(std::uint8_t type, ByteView payload) {
  Bytes rec;
  appendU8(rec, type);
  appendU16(rec, 0x0303);
  appendU16(rec, static_cast<std::uint16_t>(payload.size()));
  appendBytes(rec, payload);
  return rec;
}

// Both directions of a real session as the border saw them, then hostile
// records: short headers, lengths past the buffer, handshake messages out
// of order or truncated, app data before the handshake, alerts, floods of
// empty records.
std::vector<Bytes> hostileTlsCorpus(const TlsSessionWire& s) {
  std::vector<Bytes> corpus = {s.tap.by_dir[0], s.tap.by_dir[1]};
  corpus.push_back({});
  corpus.push_back({0x16, 0x03});
  corpus.push_back({0x16, 0x03, 0x03, 0xff, 0xff, 0x01});
  corpus.push_back(tlsRecord(0x16, {}));
  corpus.push_back(tlsRecord(0x17, toBytes("abcd")));
  corpus.push_back(tlsRecord(0x15, Bytes{0x02, 0x28}));
  corpus.push_back(tlsRecord(0x16, Bytes{0x01, 0xff, 0xff, 0x00}));
  corpus.push_back(tlsRecord(0x16, Bytes{0x02}));
  corpus.push_back(tlsRecord(0x16, Bytes{0x03, 0x00}));
  corpus.push_back(tlsRecord(0x16, Bytes{0x04, 0x00, 0x09}));
  corpus.push_back(test::clientHelloBytes("site.test", "chrome-56"));
  Bytes flood;
  for (int i = 0; i < 100; ++i) appendBytes(flood, tlsRecord(0x14, {}));
  corpus.push_back(flood);
  // A real first flight with its tail cut, and again with app data behind.
  const Bytes& c2s = s.tap.by_dir[0];
  corpus.emplace_back(c2s.begin(), c2s.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min<std::size_t>(
                                                         c2s.size(), 60)));
  Bytes flight(c2s.begin(), c2s.begin() + static_cast<std::ptrdiff_t>(
                                              std::min<std::size_t>(
                                                  c2s.size(), 200)));
  appendBytes(flight, tlsRecord(0x17, Bytes(16384, 0x41)));
  corpus.push_back(flight);
  return corpus;
}

// Pinned before the record reader stopped copying: everything each end
// does with each corpus entry, fed whole and in 1-, 7- and 1400-byte
// pieces, as server and as client.
TEST(Tls, HostileRecordCorpusDigest) {
  TlsSessionWire s;
  runTlsSession(s);
  sim::Simulator sim(11);
  TlsAcceptor acceptor("site.test", sim);
  sim::Rng unused(1);
  Fnv1a h;
  for (const Bytes& wire : hostileTlsCorpus(s)) {
    for (const bool server : {true, false}) {
      for (const std::size_t chunk : {std::max<std::size_t>(wire.size(), 1),
                                      std::size_t{1}, std::size_t{7},
                                      std::size_t{1400}})
        addTlsFeed(h, feedTls(sim, acceptor, server, wire, chunk, unused));
    }
  }
  EXPECT_EQ(h.value(), 0xa4015e03a70da355ULL);
}

// Seeded mutations of real and hostile flights, each fed whole and in
// random pieces to a server and a client end: nothing crashes, a chunking
// never changes what an end does, and some mutants still complete a
// handshake.
TEST(Tls, MutatedRecordsAreSurvived) {
  TlsSessionWire s;
  runTlsSession(s);
  const std::vector<Bytes> seeds = hostileTlsCorpus(s);
  static constexpr char kSpice[] = "\x16\x17\x15\x03\x00\x01\x02\x04\x20\xff";
  sim::Rng rng(0x7157ULL);
  std::uint64_t established = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes wire =
        test::mutate(seeds, std::string_view(kSpice, sizeof kSpice - 1), rng);
    const bool server = (i & 1) == 0;
    // Same simulator seed for both feeds, so both ends draw the same randoms.
    sim::Simulator whole_sim(static_cast<std::uint64_t>(i));
    TlsAcceptor whole_acceptor("site.test", whole_sim);
    const TlsFeedResult whole = feedTls(whole_sim, whole_acceptor, server,
                                        wire, std::max<std::size_t>(
                                                  wire.size(), 1), rng);
    sim::Simulator chunk_sim(static_cast<std::uint64_t>(i));
    TlsAcceptor chunk_acceptor("site.test", chunk_sim);
    const TlsFeedResult chunked =
        feedTls(chunk_sim, chunk_acceptor, server, wire, 0, rng);
    ASSERT_EQ(whole.outcome, chunked.outcome) << "iteration " << i;
    ASSERT_EQ(whole.sent, chunked.sent) << "iteration " << i;
    ASSERT_EQ(whole.plain, chunked.plain) << "iteration " << i;
    if (whole.outcome == 1) ++established;
  }
  EXPECT_GT(established, static_cast<std::uint64_t>(kIterations) / 40);
}

// ---- PAC ----

TEST(Pac, EvaluatesWhitelist) {
  PacScript pac;
  const auto proxy =
      ProxyDecision::httpProxy(net::Endpoint{net::Ipv4(10, 3, 0, 1), 8080});
  pac.addDomainRule("scholar.google.com", proxy);
  pac.setDefault(ProxyDecision::direct());
  EXPECT_EQ(pac.evaluate("scholar.google.com"), proxy);
  EXPECT_EQ(pac.evaluate("sub.scholar.google.com"), proxy);
  EXPECT_EQ(pac.evaluate("www.amazon.com"), ProxyDecision::direct());
}

TEST(Pac, JavaScriptRoundTrip) {
  PacScript pac;
  pac.addDomainRule("scholar.google.com",
                    ProxyDecision::httpProxy({net::Ipv4(10, 3, 0, 1), 8080}));
  pac.addGlobRule("*.edu.cn", ProxyDecision::direct());
  pac.addDomainRule("torproject.org",
                    ProxyDecision::socks({net::Ipv4(127, 0, 0, 1), 9050}));
  pac.setDefault(ProxyDecision::direct());

  const std::string js = pac.toJavaScript();
  EXPECT_NE(js.find("FindProxyForURL"), std::string::npos);
  EXPECT_NE(js.find("dnsDomainIs(host, \"scholar.google.com\")"),
            std::string::npos);
  EXPECT_NE(js.find("PROXY 10.3.0.1:8080"), std::string::npos);

  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rules().size(), 3u);
  EXPECT_EQ(parsed->evaluate("scholar.google.com"),
            pac.evaluate("scholar.google.com"));
  EXPECT_EQ(parsed->evaluate("x.edu.cn"), ProxyDecision::direct());
  EXPECT_EQ(parsed->evaluate("torproject.org"),
            ProxyDecision::socks({net::Ipv4(127, 0, 0, 1), 9050}));
}

TEST(Pac, FailoverChainEmitsAndParsesInOrder) {
  const net::Endpoint primary{net::Ipv4(10, 3, 0, 1), 8080};
  const net::Endpoint backup{net::Ipv4(10, 3, 0, 2), 8080};
  auto decision = ProxyDecision::httpProxy(primary);
  decision.addFallback(ProxyHop{ProxyKind::kHttpProxy, backup})
      .addDirectFallback();

  PacScript pac;
  pac.addDomainRule("scholar.google.com", decision);
  pac.setDefault(ProxyDecision::direct());
  const std::string js = pac.toJavaScript();
  EXPECT_NE(js.find("PROXY 10.3.0.1:8080; PROXY 10.3.0.2:8080; DIRECT"),
            std::string::npos);

  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  const auto round = parsed->evaluate("scholar.google.com");
  EXPECT_EQ(round, decision);
  const auto hops = round.hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].proxy, primary);  // order preserved: primary first
  EXPECT_EQ(hops[1].proxy, backup);
  EXPECT_EQ(hops[2].kind, ProxyKind::kDirect);
}

TEST(Pac, FailoverChainToleratesWhitespaceBetweenHops) {
  const std::string js =
      "function FindProxyForURL(url, host) {\n"
      "  return \"PROXY 1.2.3.4:8080 ;  PROXY 5.6.7.8:8080;DIRECT\";\n}\n";
  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  const auto d = parsed->defaultDecision();
  EXPECT_EQ(d.kind, ProxyKind::kHttpProxy);
  EXPECT_EQ(d.proxy, (net::Endpoint{net::Ipv4(1, 2, 3, 4), 8080}));
  ASSERT_EQ(d.fallbacks.size(), 2u);
  EXPECT_EQ(d.fallbacks[0].proxy, (net::Endpoint{net::Ipv4(5, 6, 7, 8), 8080}));
  EXPECT_EQ(d.fallbacks[1].kind, ProxyKind::kDirect);
}

TEST(Pac, FailoverChainRejectsEmptySegments) {
  const auto make = [](const std::string& ret) {
    return PacScript::parseJavaScript(
        "function FindProxyForURL(url, host) {\n  return \"" + ret +
        "\";\n}\n");
  };
  EXPECT_FALSE(make("PROXY 1.2.3.4:8080;").has_value());   // trailing ';'
  EXPECT_FALSE(make("PROXY 1.2.3.4:8080;;DIRECT").has_value());
  EXPECT_FALSE(make(";DIRECT").has_value());
  EXPECT_TRUE(make("PROXY 1.2.3.4:8080;DIRECT").has_value());
}

TEST(Pac, ParserRejectsOutsideDialect) {
  EXPECT_FALSE(PacScript::parseJavaScript("function f() { alert(1); }")
                   .has_value());
  EXPECT_FALSE(PacScript::parseJavaScript(
                   "function FindProxyForURL(url, host) {\n"
                   "  if (evilCall(host, \"x\")) return \"DIRECT\";\n"
                   "  return \"DIRECT\";\n}")
                   .has_value());
  EXPECT_FALSE(PacScript::parseJavaScript("").has_value());
}

// ---- server + client ----

TEST(HttpServer, ServesRoutedRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  server.route("/hello", [](const Request&, HttpServer::Respond respond) {
    Response resp;
    resp.body = toBytes("world");
    respond(std::move(resp));
  });

  std::optional<Response> got;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/hello";
        req.headers.set("host", "site.test");
        HttpClient::fetchOn(conn, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(toString(got->body), "world");
}

TEST(HttpServer, KeepAliveServesSequentialRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  server.route("/", [](const Request& req, HttpServer::Respond respond) {
    Response resp;
    resp.body = toBytes("path=" + req.target);
    respond(std::move(resp));
  });

  std::vector<std::string> bodies;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/a";
        HttpClient::fetchOn(conn, w.sim, req, sim::kMinute,
                            [&, sock = conn](std::optional<Response> r) {
                              ASSERT_TRUE(r.has_value());
                              bodies.push_back(toString(r->body));
                              Request second;
                              second.target = "/b";
                              HttpClient::fetchOn(
                                  sock, w.sim, second, sim::kMinute,
                                  [&](std::optional<Response> r2) {
                                    ASSERT_TRUE(r2.has_value());
                                    bodies.push_back(toString(r2->body));
                                  });
                            });
      });
  w.runUntilDone([&] { return bodies.size() == 2; });
  EXPECT_EQ(bodies[0], "path=/a");
  EXPECT_EQ(bodies[1], "path=/b");
  EXPECT_EQ(server.requestsServed(), 2u);
}

TEST(HttpServer, UnroutedPathReturns404) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  std::optional<Response> got;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/nowhere";
        HttpClient::fetchOn(conn, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 404);
}

// ---- SOCKS ----

TEST(Socks, WireHelpersRoundTrip) {
  EXPECT_EQ(socksGreeting(), (Bytes{0x05, 0x01, 0x00}));
  const auto req = socksRequest(
      transport::ConnectTarget::byHostname("scholar.google.com", 443));
  EXPECT_EQ(req[0], 0x05);
  EXPECT_EQ(req[3], 0x03);  // domain atyp
  EXPECT_EQ(req[4], 18);    // hostname length
}

TEST(Socks, EndToEndThroughProxy) {
  MiniWorld w;
  // Echo origin on the server host, port 7000.
  auto echo_listener =
      w.server.tcpListen(7000, [](transport::TcpSocket::Ptr sock) {
        sock->setOnData([sock](ByteView data) {
          sock->send(Bytes(data.begin(), data.end()));
        });
      });

  // SOCKS proxy also on the server host, port 1080.
  SocksServer socks([&w](transport::ConnectTarget target,
                         transport::Stream::Ptr client,
                         std::function<void(bool)> respond) {
    w.server.directConnector()->connect(
        target, [client, respond](transport::Stream::Ptr upstream) {
          respond(upstream != nullptr);
          if (upstream != nullptr) transport::bridgeStreams(client, upstream);
        });
  });
  auto socks_listener = w.server.tcpListen(
      1080,
      [&socks](transport::TcpSocket::Ptr sock) { socks.accept(sock); });

  auto connector = std::make_shared<SocksConnector>(
      w.client, net::Endpoint{w.server_node.primaryIp(), 1080});
  Bytes echoed;
  transport::Stream::Ptr stream_keep;
  connector->connect(
      transport::ConnectTarget::byAddress(
          {w.server_node.primaryIp(), 7000}),
      [&](transport::Stream::Ptr stream) {
        ASSERT_NE(stream, nullptr);
        stream_keep = stream;
        stream->setOnData([&](ByteView data) { appendBytes(echoed, data); });
        stream->send(toBytes("through socks"));
      });
  w.runUntilDone([&] { return echoed.size() >= 13; });
  EXPECT_EQ(toString(echoed), "through socks");
}

TEST(Socks, RefusedTargetReportsFailure) {
  MiniWorld w;
  SocksServer socks([](transport::ConnectTarget, transport::Stream::Ptr,
                       std::function<void(bool)> respond) { respond(false); });
  auto socks_listener = w.server.tcpListen(
      1080,
      [&socks](transport::TcpSocket::Ptr sock) { socks.accept(sock); });
  auto connector = std::make_shared<SocksConnector>(
      w.client, net::Endpoint{w.server_node.primaryIp(), 1080});
  bool done = false;
  transport::Stream::Ptr got = nullptr;
  connector->connect(transport::ConnectTarget::byHostname("x.test", 80),
                     [&](transport::Stream::Ptr stream) {
                       done = true;
                       got = stream;
                     });
  w.runUntilDone([&] { return done; });
  EXPECT_EQ(got, nullptr);
}

// ---- origin ----

TEST(Origin, HomepageListsSubresourcesAndRecordsAccounts) {
  MiniWorld w;
  WebOrigin origin(w.server, PageSpec::scholarDefault());
  EXPECT_EQ(origin.spec().subresources.size(), 5u);
  EXPECT_TRUE(origin.spec().account_recording);
  EXPECT_EQ(origin.pageViews(), 0u);
}

TEST(Origin, HttpPortRedirectsToHttps) {
  MiniWorld w;
  WebOrigin origin(w.server, PageSpec::scholarDefault());
  std::optional<Response> got;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;  // GET / (the defaults)
        req.headers.set("host", "scholar.google.com");
        HttpClient::fetchOn(conn, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 301);
  EXPECT_EQ(got->headers.get("location").value_or(""),
            "https://scholar.google.com/");
}

}  // namespace
}  // namespace sc::http

namespace sc::http {
namespace {

TEST(HttpServer, ConnectHandlerTakesOverTheStream) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer proxy(w.server, opts);
  Bytes tunneled;
  proxy.setConnectHandler([&](const Request& req, transport::Stream::Ptr client,
                              HttpServer::Respond respond) {
    EXPECT_EQ(req.target, "example.com:443");
    Response ok;
    ok.status = 200;
    ok.reason = "Connection Established";
    respond(ok);
    client->setOnData([&tunneled, client](ByteView d) {
      appendBytes(tunneled, d);
      client->send(toBytes("raw-bytes-back"));
    });
  });

  Bytes received;
  // The test owns the tunnel's socket once the CONNECT is answered: the
  // HTTP client lets go of it then.
  transport::TcpSocket::Ptr sock;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        sock = conn;
        Request connect_req;
        connect_req.method = "CONNECT";
        connect_req.target = "example.com:443";
        connect_req.headers.set("host", connect_req.target);
        HttpClient::fetchOn(conn, w.sim, connect_req, sim::kMinute,
                            [&](std::optional<Response> resp) {
                              ASSERT_TRUE(resp.has_value());
                              ASSERT_EQ(resp->status, 200);
                              sock->setOnData([&](ByteView d) {
                                appendBytes(received, d);
                              });
                              // Post-CONNECT bytes are NOT HTTP.
                              sock->send(Bytes{0x16, 0x03, 0x03, 0x00});
                            });
      });
  w.runUntilDone([&] { return received.size() >= 14; });
  EXPECT_EQ(toString(received), "raw-bytes-back");
  EXPECT_EQ(tunneled, (Bytes{0x16, 0x03, 0x03, 0x00}));
}

TEST(HttpServer, MalformedRequestClosesSession) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer server(w.server, opts);
  bool closed = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [](const auto&) {});
  sock->setOnClose([&] { closed = true; });
  sock->send(toBytes("TOTAL GARBAGE\r\n\r\n"));
  w.runUntilDone([&] { return closed; });
  EXPECT_EQ(server.activeSessions(), 0u);
}

TEST(HttpServer, PeerAddressIsStampedOntoRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer server(w.server, opts);
  std::string seen_peer;
  server.route("/", [&](const Request& req, HttpServer::Respond respond) {
    seen_peer = req.headers.get(HttpServer::kPeerHeader).value_or("");
    respond(Response{});
  });
  std::optional<Response> got;
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;  // GET / (the defaults)
        HttpClient::fetchOn(conn, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(seen_peer, w.client_node.primaryIp().str());
}

TEST(HttpClient, TimesOutOnSilentServer) {
  MiniWorld w;
  // A listener that accepts and never replies.
  std::vector<transport::TcpSocket::Ptr> held;
  auto listener = w.server.tcpListen(9000, [&](transport::TcpSocket::Ptr s) {
    held.push_back(s);
  });
  bool done = false;
  std::optional<Response> got = Response{};
  w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 9000}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        Request req;  // GET / (the defaults)
        HttpClient::fetchOn(conn, w.sim, req, 2 * sim::kSecond,
                            [&](std::optional<Response> r) {
                              done = true;
                              got = r;
                            });
      });
  w.runUntilDone([&] { return done; });
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace sc::http
