#include "lint/runner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "lint/facts.h"  // hex64

namespace radiomc::lint {

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// Minimal JSON string escaping for the report writer.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.starts_with("build") || name.starts_with(".") ||
         name == "third_party";
}

}  // namespace

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return true;
}

std::vector<SourceFile> load_tree(const std::vector<std::string>& roots) {
  std::vector<SourceFile> out;
  for (const std::string& root : roots) {
    const fs::path rp(root);
    if (fs::is_regular_file(rp)) {
      out.push_back({rp.generic_string(), {}});
      read_file(root, &out.back().content);
      continue;
    }
    if (!fs::is_directory(rp)) continue;
    fs::recursive_directory_iterator it(
        rp, fs::directory_options::skip_permission_denied);
    for (const auto& entry : it) {
      if (entry.is_directory() && skip_dir(entry.path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file() && lintable(entry.path())) {
        out.push_back({entry.path().generic_string(), {}});
        read_file(out.back().path, &out.back().content);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return out;
}

void print_findings(std::ostream& os, const std::vector<Finding>& findings,
                    bool show_waived) {
  for (const Finding& f : findings) {
    if (f.waived && !show_waived) continue;
    os << f.file << ':' << f.line << ": [" << f.rule << "]";
    if (f.waived) {
      os << " waived";
      if (!f.waiver_reason.empty()) os << " (" << f.waiver_reason << ")";
    }
    os << ' ' << f.message << '\n';
  }
}

void write_json_report(std::ostream& os, const AnalysisResult& result,
                       double wall_ms) {
  const std::vector<Finding>& findings = result.findings;
  const std::size_t unwaived = count_unwaived(findings);
  os << "{\"schema\":\"radiomc.lint/v2\",\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":\"" << json_escape(f.rule) << "\",\"file\":\""
       << json_escape(f.file) << "\",\"line\":" << f.line << ",\"message\":\""
       << json_escape(f.message) << "\",\"waived\":"
       << (f.waived ? "true" : "false");
    if (f.waived && !f.waiver_reason.empty())
      os << ",\"reason\":\"" << json_escape(f.waiver_reason) << "\"";
    os << '}';
  }
  os << "],\"rng_streams\":{\"split_sites\":" << result.split_sites
     << ",\"tags\":[";
  first = true;
  for (const TagInventoryEntry& t : result.rng_tags) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(t.name) << "\",\"value\":\""
       << hex64(t.value) << "\",\"file\":\"" << json_escape(t.file)
       << "\",\"line\":" << t.line << '}';
  }
  os << "]},\"layers\":{\"declared\":" << result.layers_declared
     << ",\"edges\":" << result.layer_edges_declared << '}';
  char wall[32];
  std::snprintf(wall, sizeof wall, "%.3f", wall_ms);
  os << ",\"footer\":{\"files_scanned\":" << result.files_scanned
     << ",\"total\":" << findings.size() << ",\"unwaived\":" << unwaived
     << ",\"waived\":" << findings.size() - unwaived
     << ",\"wall_ms\":" << wall << "}}\n";
}

}  // namespace radiomc::lint
