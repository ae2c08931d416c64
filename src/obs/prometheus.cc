#include "obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

namespace lamo {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

void AddWindowedGaugeSample(PromFamily* family, const std::string& base,
                            const std::string& window, double value) {
  family->samples.push_back(base + "{window=\"" + window + "\"} " +
                            FormatDouble(value));
}

void AppendHistogramFamily(std::vector<PromFamily>* out,
                           const std::string& base,
                           const HistogramSnapshot& h) {
  PromFamily family{base, "histogram", {}};
  uint64_t cum = 0;
  for (size_t b = 0; b < kObsHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    cum += h.buckets[b];
    // The last bucket's upper bound is UINT64_MAX; it is covered by +Inf.
    if (b + 1 < kObsHistogramBuckets) {
      family.samples.push_back(base + "_bucket{le=\"" +
                               std::to_string(ObsHistogramBucketHi(b)) +
                               "\"} " + std::to_string(cum));
    }
  }
  family.samples.push_back(base + "_bucket{le=\"+Inf\"} " +
                           std::to_string(h.count));
  family.samples.push_back(base + "_sum " + std::to_string(h.sum));
  family.samples.push_back(base + "_count " + std::to_string(h.count));
  out->push_back(std::move(family));
}

}  // namespace

std::string PromMetricName(const std::string& obs_name) {
  std::string out = "lamo_";
  for (char c : obs_name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

std::vector<PromFamily> CollectPromFamilies(const ObsSink* sink,
                                            MetricWindows* windows,
                                            uint64_t now_ms, double uptime_s,
                                            double start_time_s) {
  std::vector<PromFamily> out;
  out.push_back({"lamo_uptime_seconds",
                 "gauge",
                 {"lamo_uptime_seconds " + FormatDouble(uptime_s)}});
  out.push_back({"lamo_start_time_seconds",
                 "gauge",
                 {"lamo_start_time_seconds " + FormatDouble(start_time_s)}});
  if (sink == nullptr) return out;

  const std::map<std::string, uint64_t> counters = sink->CounterTotals();
  const std::vector<HistogramSnapshot> histograms = sink->Histograms();
  MetricWindows::Delta d10, d60;
  bool have10 = false;
  bool have60 = false;
  if (windows != nullptr) {
    windows->Update(now_ms, counters, histograms);
    have10 = windows->WindowDelta(10'000, &d10);
    have60 = windows->WindowDelta(60'000, &d60);
  }

  for (const auto& [name, value] : sink->Gauges()) {
    const std::string metric = PromMetricName(name);
    out.push_back({metric, "gauge", {metric + " " + FormatDouble(value)}});
  }

  for (const auto& [name, total] : counters) {
    if (total == 0) continue;  // the registry spans the whole binary
    const std::string base = PromMetricName(name);
    out.push_back({base + "_total",
                   "counter",
                   {base + "_total " + std::to_string(total)}});
    PromFamily rates{base + "_per_sec", "gauge", {}};
    if (uptime_s > 0.0) {
      AddWindowedGaugeSample(&rates, rates.name, "lifetime",
                             static_cast<double>(total) / uptime_s);
    }
    if (have10 && d10.span_s > 0.0) {
      AddWindowedGaugeSample(
          &rates, rates.name, "10s",
          static_cast<double>(d10.counters[name]) / d10.span_s);
    }
    if (have60 && d60.span_s > 0.0) {
      AddWindowedGaugeSample(
          &rates, rates.name, "60s",
          static_cast<double>(d60.counters[name]) / d60.span_s);
    }
    if (!rates.samples.empty()) out.push_back(std::move(rates));
  }

  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (h.count == 0) continue;
    const std::string base = PromMetricName(h.name);
    AppendHistogramFamily(&out, base, h);
    static const std::pair<const char*, double> kQuantiles[] = {
        {"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};
    for (const auto& [suffix, q] : kQuantiles) {
      PromFamily pct{base + suffix, "gauge", {}};
      AddWindowedGaugeSample(&pct, pct.name, "lifetime",
                             static_cast<double>(h.Percentile(q)));
      if (have10 && i < d10.histograms.size() && d10.histograms[i].count > 0) {
        AddWindowedGaugeSample(
            &pct, pct.name, "10s",
            static_cast<double>(d10.histograms[i].Percentile(q)));
      }
      if (have60 && i < d60.histograms.size() && d60.histograms[i].count > 0) {
        AddWindowedGaugeSample(
            &pct, pct.name, "60s",
            static_cast<double>(d60.histograms[i].Percentile(q)));
      }
      out.push_back(std::move(pct));
    }
  }
  return out;
}

std::vector<std::string> RenderPromLines(
    const std::vector<PromFamily>& families) {
  std::vector<std::string> lines;
  for (const PromFamily& f : families) {
    if (f.samples.empty()) continue;
    lines.push_back("# TYPE " + f.name + " " + f.type);
    for (const std::string& s : f.samples) lines.push_back(s);
  }
  return lines;
}

bool ParsePromFamilies(const std::string& text,
                       std::vector<PromFamily>* families, std::string* error) {
  families->clear();
  auto fail = [error](size_t line_no, const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return false;
  };
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t space = rest.find(' ');
        if (space == std::string::npos) {
          return fail(line_no, "malformed TYPE line");
        }
        PromFamily family;
        family.name = rest.substr(0, space);
        family.type = rest.substr(space + 1);
        if (!ValidMetricName(family.name)) {
          return fail(line_no, "invalid metric name '" + family.name + "'");
        }
        if (family.type != "counter" && family.type != "gauge" &&
            family.type != "histogram") {
          return fail(line_no, "unknown metric type '" + family.type + "'");
        }
        families->push_back(std::move(family));
      }
      continue;  // # HELP and other comments
    }
    if (families->empty()) {
      return fail(line_no, "sample before any # TYPE header");
    }
    PromFamily& family = families->back();
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      return fail(line_no, "sample line has no value");
    }
    const std::string name = line.substr(0, name_end);
    if (!ValidMetricName(name)) {
      return fail(line_no, "invalid sample name '" + name + "'");
    }
    bool belongs = name == family.name;
    if (!belongs && family.type == "histogram") {
      belongs = name == family.name + "_bucket" ||
                name == family.name + "_sum" || name == family.name + "_count";
    }
    if (!belongs) {
      return fail(line_no,
                  "sample '" + name + "' outside family '" + family.name + "'");
    }
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      const size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        return fail(line_no, "unterminated label set");
      }
      value_start = close + 1;
    }
    while (value_start < line.size() && line[value_start] == ' ') ++value_start;
    if (value_start >= line.size()) {
      return fail(line_no, "sample line has no value");
    }
    const std::string value = line.substr(value_start);
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0' || !std::isfinite(v)) {
      return fail(line_no, "non-numeric sample value '" + value + "'");
    }
    family.samples.push_back(line);
  }
  return true;
}

bool ParsePromSample(const std::string& line, PromSample* sample,
                     std::string* error) {
  const size_t name_end = line.find_first_of("{ ");
  if (name_end == std::string::npos) {
    *error = "no value in sample '" + line + "'";
    return false;
  }
  sample->name = line.substr(0, name_end);
  sample->labels.clear();
  size_t pos = name_end;
  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      const size_t eq = line.find('=', pos);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        *error = "malformed label in '" + line + "'";
        return false;
      }
      const std::string key = line.substr(pos, eq - pos);
      std::string value;
      size_t v = eq + 2;
      while (v < line.size() && line[v] != '"') {
        if (line[v] == '\\' && v + 1 < line.size()) ++v;
        value += line[v++];
      }
      if (v >= line.size()) {
        *error = "unterminated label value in '" + line + "'";
        return false;
      }
      sample->labels[key] = value;
      pos = v + 1;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      *error = "unterminated label set in '" + line + "'";
      return false;
    }
    ++pos;
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  char* end = nullptr;
  sample->value = std::strtod(line.c_str() + pos, &end);
  if (end == line.c_str() + pos || *end != '\0') {
    *error = "non-numeric value in '" + line + "'";
    return false;
  }
  return true;
}

std::string InjectPromLabels(const std::string& sample,
                             const std::string& labels) {
  if (labels.empty()) return sample;
  const size_t space = sample.find(' ');
  const size_t brace = sample.find('{');
  if (brace != std::string::npos &&
      (space == std::string::npos || brace < space)) {
    return sample.substr(0, brace + 1) + labels + "," +
           sample.substr(brace + 1);
  }
  if (space == std::string::npos) return sample;  // malformed; leave as-is
  return sample.substr(0, space) + "{" + labels + "}" + sample.substr(space);
}

void MergePromFamilies(std::vector<PromFamily>* into,
                       const std::vector<PromFamily>& from,
                       const std::string& labels) {
  for (const PromFamily& f : from) {
    PromFamily* target = nullptr;
    for (PromFamily& existing : *into) {
      if (existing.name == f.name) {
        target = &existing;
        break;
      }
    }
    if (target == nullptr) {
      into->push_back({f.name, f.type, {}});
      target = &into->back();
    }
    for (const std::string& s : f.samples) {
      target->samples.push_back(InjectPromLabels(s, labels));
    }
  }
}

}  // namespace lamo
