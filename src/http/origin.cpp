#include "http/origin.h"

#include "crypto/sha256.h"

namespace sc::http {

PageSpec PageSpec::scholarDefault() {
  PageSpec spec;
  spec.host = "scholar.google.com";
  spec.html_size = 6 * 1024;
  spec.subresources = {
      {"/static/scholar.css", 2 * 1024},
      {"/static/scholar.js", 4 * 1024},
      {"/static/logo.png", 2 * 1024},
      {"/static/fonts.woff", 1536},
      {"/citations/badge.png", 1024},
  };
  spec.account_recording = true;
  return spec;
}

PageSpec PageSpec::simpleUsSite(const std::string& host) {
  PageSpec spec;
  spec.host = host;
  spec.html_size = 6 * 1024;
  spec.subresources = {
      {"/static/site.css", 2 * 1024},
      {"/static/site.js", 4 * 1024},
      {"/static/hero.jpg", 4 * 1024},
  };
  spec.account_recording = false;
  return spec;
}

std::string WebOrigin::etagFor(const std::string& path) {
  const std::string hex = toHex(crypto::sha256(toBytes(path)));
  std::string etag;
  etag.reserve(18);
  etag.append("\"").append(hex, 0, 16).append("\"");
  return etag;
}

Bytes WebOrigin::buildBlob(std::size_t size, const std::string& seed) const {
  // Deterministic pseudo-content: compressible-ish text, like real assets.
  std::string content = "/* " + seed + " */\n";
  const std::string filler =
      "function renderScholarResult(entry){return entry.title+' - '+"
      "entry.authors.join(', ');}\n";
  while (content.size() < size) content += filler;
  content.resize(size);
  return toBytes(content);
}

Bytes WebOrigin::buildHomepage() const {
  std::string body = "<!doctype html>\n<html><head><title>";
  body += spec_.host;
  body += "</title></head>\n<body>\n";
  for (const auto& sub : spec_.subresources) {
    body += "RES https://" + spec_.host + sub.path + " " +
            std::to_string(sub.size) + "\n";
  }
  if (spec_.account_recording)
    body += "ACCOUNT https://" + spec_.host + "/record\n";
  const std::string filler =
      "<p>Stand on the shoulders of giants. Search scholarly literature "
      "across many disciplines and sources.</p>\n";
  while (body.size() < spec_.html_size) body += filler;
  body.resize(spec_.html_size);
  body += "\n</body></html>";
  return toBytes(body);
}

WebOrigin::WebOrigin(transport::HostStack& stack, PageSpec spec)
    : stack_(stack), spec_(std::move(spec)) {
  ServerOptions http_opts;
  http_opts.port = 80;
  http_ = std::make_unique<HttpServer>(stack_, http_opts);
  http_->setDefaultHandler([host = spec_.host](const Request& req,
                                               HttpServer::Respond respond) {
    std::string path = req.target;
    if (const auto url = Url::parse(path)) path = url->path;
    Response resp;
    resp.status = 301;
    resp.reason = statusReason(301);
    resp.headers.set("location", "https://" + host + path);
    respond(std::move(resp));
  });

  ServerOptions https_opts;
  https_opts.port = 443;
  https_opts.tls = true;
  https_opts.cert_name = spec_.host;
  https_ = std::make_unique<HttpServer>(stack_, https_opts);

  https_->route("/record", [this](const Request&, HttpServer::Respond respond) {
    ++account_records_;
    Response resp;
    resp.body = toBytes("recorded");
    resp.headers.set("content-type", "text/plain");
    respond(std::move(resp));
  });

  for (const auto& sub : spec_.subresources) {
    const Bytes blob = buildBlob(sub.size, spec_.host + sub.path);
    const std::string etag = etagFor(sub.path);
    https_->route(sub.path, [blob, etag](const Request& req,
                                         HttpServer::Respond respond) {
      Response resp;
      if (req.headers.get("if-none-match").value_or("") == etag) {
        resp.status = 304;
        resp.reason = statusReason(304);
      } else {
        resp.body = blob;
      }
      resp.headers.set("etag", etag);
      resp.headers.set("cache-control", "max-age=3600");
      respond(std::move(resp));
    });
  }

  https_->route("/", [this](const Request& req, HttpServer::Respond respond) {
    std::string path = req.target;
    if (const auto url = Url::parse(path)) path = url->path;
    Response resp;
    if (path != "/") {
      resp.status = 404;
      resp.reason = statusReason(404);
      respond(std::move(resp));
      return;
    }
    ++page_views_;
    resp.body = buildHomepage();
    resp.headers.set("content-type", "text/html");
    respond(std::move(resp));
  });
}

}  // namespace sc::http
