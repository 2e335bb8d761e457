#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void JsonObject::Num(const std::string& key, double value) {
  members_.emplace_back(key, FormatDouble(value));
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  members_.emplace_back(key, JsonQuote(value));
}

void JsonObject::Array(const std::string& key,
                       const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += FormatDouble(values[i]);
  }
  members_.emplace_back(key, out + "]");
}

void JsonObject::Object(const std::string& key, const JsonObject& value) {
  members_.emplace_back(key, value.ToString());
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(members_[i].first) + ": " + members_[i].second;
  }
  return out + "}";
}

uint64_t SpanRecorder::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(uint64_t id, const std::string& name,
                          uint64_t parent, uint64_t group,
                          Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const Clock::time_point call_start = Clock::now();
  Append({id, parent, group, name, SecondsBetween(origin_, start),
          SecondsBetween(start, end)},
         call_start);
}

void SpanRecorder::RecordDuration(uint64_t id, const std::string& name,
                                  uint64_t parent, uint64_t group,
                                  double seconds) {
  if (!enabled_) return;
  const Clock::time_point call_start = Clock::now();
  Append({id, parent, group, name, -1.0, seconds}, call_start);
}

void SpanRecorder::Append(Span span, Clock::time_point call_start) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  overhead_s_ += SecondsBetween(call_start, Clock::now());
}

double SpanRecorder::overhead_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_s_;
}

bool SpanRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "\n") << "[" << s.id << "," << s.parent << ","
        << s.group << "," << JsonQuote(s.name) << ","
        << (s.start_s < 0.0 ? std::string("null") : FormatDouble(s.start_s))
        << "," << FormatDouble(s.dur_s) << "]";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

void WorkloadResult::AddCheck(const std::string& name, uint64_t checked,
                              uint64_t failed) {
  JsonObject check;
  check.Num("checked", static_cast<double>(checked));
  check.Num("failed", static_cast<double>(failed));
  checks.Object(name, check);
}

}  // namespace perfbench
