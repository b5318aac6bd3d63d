#include "lint/linter.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "lint/index.h"

namespace sc::lint {

namespace {

// An allow-annotation (parsed by collectAllowSites in index.cpp — malformed
// annotations with no closing paren are dropped there; they suppress
// nothing, so the finding they meant to cover still fails the build, which
// is the safe direction) plus the per-file pass's used flag.
struct Allow {
  std::string rule;
  std::string reason;
  int line = 0;
  bool used = false;
};

std::vector<Allow> collectAllows(const std::vector<Token>& toks) {
  std::vector<Allow> allows;
  for (AllowSite& site : collectAllowSites(toks))
    allows.push_back(Allow{std::move(site.rule), std::move(site.reason),
                           site.line, false});
  return allows;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

FileReport lintSource(const std::string& path, std::string_view content,
                      std::string_view companion,
                      const LintOptions& options) {
  FileReport report;
  report.file = path;

  const std::vector<Token> toks = lex(content);
  const std::vector<Token> companion_toks =
      companion.empty() ? std::vector<Token>{} : lex(companion);

  std::vector<RawFinding> raw;
  checkDeterminism(toks, companion_toks, raw);
  if (options.layers != nullptr) checkLayering(path, toks, *options.layers, raw);
  checkHygiene(path, toks, raw);

  std::vector<Allow> allows = collectAllows(toks);
  report.suppressions = static_cast<int>(allows.size());

  // Meta findings about the annotations themselves (unsuppressable).
  for (const Allow& a : allows) {
    if (!isKnownRule(a.rule)) {
      raw.push_back(RawFinding{
          "allow-unknown-rule", a.line,
          "sclint:allow(" + a.rule + ") names no known rule"});
    } else if (a.reason.empty()) {
      raw.push_back(RawFinding{
          "allow-missing-reason", a.line,
          "sclint:allow(" + a.rule + ") carries no reason; say why"});
    }
  }

  std::stable_sort(raw.begin(), raw.end(),
                   [](const RawFinding& a, const RawFinding& b) {
                     return a.line < b.line;
                   });

  for (const RawFinding& f : raw) {
    Finding out;
    out.file = path;
    out.line = f.line;
    out.rule = f.rule;
    out.message = f.message;
    const bool meta = f.rule.compare(0, 6, "allow-") == 0;
    if (!meta) {
      for (Allow& a : allows) {
        if (a.rule != f.rule) continue;
        if (f.line != a.line && f.line != a.line + 1) continue;
        a.used = true;
        out.suppressed = true;
        out.reason = a.reason;
        break;
      }
    }
    report.findings.push_back(std::move(out));
  }

  for (const Allow& a : allows)
    if (!a.used && isKnownRule(a.rule)) ++report.suppressions_unused;
  return report;
}

void applyTreeFindings(
    std::vector<Finding> findings,
    const std::map<std::string, std::vector<AllowSite>>& allows,
    std::vector<FileReport>& reports) {
  std::map<std::string, std::size_t> report_of;
  for (std::size_t i = 0; i < reports.size(); ++i)
    report_of.emplace(reports[i].file, i);

  // An allow consumed here that the per-file pass booked as unused (it
  // matched no token finding) is reconciled exactly once.
  std::set<std::pair<std::string, int>> reconciled;

  for (Finding& f : findings) {
    const auto allow_it = allows.find(f.file);
    if (allow_it != allows.end()) {
      for (const AllowSite& a : allow_it->second) {
        if (a.rule != f.rule) continue;
        if (f.line != a.line && f.line != a.line + 1) continue;
        f.suppressed = true;
        f.reason = a.reason;
        const auto rep = report_of.find(f.file);
        if (rep != report_of.end()) {
          FileReport& r = reports[rep->second];
          if (r.suppressions_unused > 0 &&
              reconciled.insert({f.file, a.line}).second)
            --r.suppressions_unused;
        }
        break;
      }
    }
    const auto rep = report_of.find(f.file);
    if (rep != report_of.end()) {
      reports[rep->second].findings.push_back(std::move(f));
    } else {
      FileReport fresh;
      fresh.file = f.file;
      fresh.findings.push_back(std::move(f));
      report_of.emplace(fresh.file, reports.size());
      reports.push_back(std::move(fresh));
    }
  }
  for (FileReport& r : reports) {
    std::stable_sort(r.findings.begin(), r.findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
  }
}

Totals totalsOf(const std::vector<FileReport>& reports) {
  Totals t;
  t.files = static_cast<int>(reports.size());
  for (const FileReport& r : reports) {
    t.suppressions_unused += r.suppressions_unused;
    for (const Finding& f : r.findings) {
      ++t.findings;
      if (f.suppressed)
        ++t.suppressed;
      else
        ++t.unsuppressed;
    }
  }
  return t;
}

std::string renderText(const std::vector<FileReport>& reports) {
  std::string out;
  for (const FileReport& r : reports) {
    for (const Finding& f : r.findings) {
      if (f.suppressed) continue;
      out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
             f.message + "\n";
      for (const std::string& hop : f.chain) out += "    " + hop + "\n";
    }
  }
  const Totals t = totalsOf(reports);
  out += "sclint: " + std::to_string(t.files) + " files, " +
         std::to_string(t.findings) + " findings (" +
         std::to_string(t.unsuppressed) + " unsuppressed, " +
         std::to_string(t.suppressed) + " suppressed";
  if (t.suppressions_unused > 0)
    out += ", " + std::to_string(t.suppressions_unused) + " unused allows";
  out += ")\n";
  return out;
}

std::string renderJson(const std::vector<FileReport>& reports) {
  const Totals t = totalsOf(reports);
  std::string out = "{\n  \"totals\": {\"files\": " + std::to_string(t.files) +
                    ", \"findings\": " + std::to_string(t.findings) +
                    ", \"unsuppressed\": " + std::to_string(t.unsuppressed) +
                    ", \"suppressed\": " + std::to_string(t.suppressed) +
                    ", \"suppressions_unused\": " +
                    std::to_string(t.suppressions_unused) + "},\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const FileReport& r : reports) {
    for (const Finding& f : r.findings) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"file\": \"" + jsonEscape(f.file) +
             "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
             jsonEscape(f.rule) + "\", \"suppressed\": " +
             (f.suppressed ? "true" : "false") + ", \"message\": \"" +
             jsonEscape(f.message) + "\"";
      if (f.suppressed)
        out += ", \"reason\": \"" + jsonEscape(f.reason) + "\"";
      if (!f.chain.empty()) {
        out += ", \"chain\": [";
        for (std::size_t i = 0; i < f.chain.size(); ++i) {
          if (i > 0) out += ", ";
          const std::string step = jsonEscape(f.chain[i]);
          out.reserve(out.size() + step.size() + 2);
          out.append("\"").append(step).append("\"");
        }
        out += "]";
      }
      out += "}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"rules\": [";
  first = true;
  for (const Rule& r : ruleTable()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": \"" + jsonEscape(r.id) + "\", \"family\": \"" +
           jsonEscape(r.family) + "\"}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace sc::lint
