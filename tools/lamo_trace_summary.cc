// lamo_trace_summary — digests a Chrome trace-event JSON written by `lamo
// --trace` into a terminal profile: per span name, the call count, total
// (inclusive) time and self time, overall and per thread. Self time is
// inclusive time minus the time covered by spans nested inside it on the
// same thread, so phase wrappers do not double-count their children.
//
//   lamo mine --graph g.txt --trace mine.trace.json --threads 4
//   lamo_trace_summary mine.trace.json --top 10
//
// The first output line is machine-greppable:
//   trace: <events> events, <names> span names, <threads> threads, <n> dropped
// and is what the cli_trace ctest asserts on.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/atomic_io.h"
#include "util/string_util.h"

namespace lamo {
namespace {

struct Span {
  std::string name;
  uint64_t tid = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

struct NameStats {
  uint64_t calls = 0;
  uint64_t total_us = 0;  // inclusive
  uint64_t self_us = 0;   // exclusive of nested same-thread spans
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "trace summary failed: %s\n", message.c_str());
  return 1;
}

// Computes self time for one thread's spans: sort by (start, -dur) and run
// a stack of open spans; each span's nested children subtract from its
// inclusive time. Spans from a ring buffer never overlap partially on one
// thread (they are scope-nested by construction), so containment is enough.
void AccumulateThread(std::vector<Span> spans,
                      std::map<std::string, NameStats>* stats) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  struct Open {
    size_t index;
    uint64_t end_us;
    uint64_t child_us = 0;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    const Span& span = spans[open.index];
    NameStats& s = (*stats)[span.name];
    s.calls += 1;
    s.total_us += span.dur_us;
    s.self_us += span.dur_us > open.child_us ? span.dur_us - open.child_us : 0;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t end_us = spans[i].start_us + spans[i].dur_us;
    while (!stack.empty() && stack.back().end_us <= spans[i].start_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += spans[i].dur_us;
    stack.push_back(Open{i, end_us});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

void PrintTable(const std::string& heading,
                const std::map<std::string, NameStats>& stats, size_t top) {
  std::vector<std::pair<std::string, NameStats>> rows(stats.begin(),
                                                      stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) {
      return a.second.total_us > b.second.total_us;
    }
    return a.first < b.first;
  });
  std::printf("%s\n", heading.c_str());
  std::printf("  %-28s %10s %14s %14s\n", "span", "calls", "total_us",
              "self_us");
  for (size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %-28s %10llu %14llu %14llu\n", rows[i].first.c_str(),
                static_cast<unsigned long long>(rows[i].second.calls),
                static_cast<unsigned long long>(rows[i].second.total_us),
                static_cast<unsigned long long>(rows[i].second.self_us));
  }
}

int Summarize(const std::string& path, size_t top) {
  std::string text;
  if (!ReadFileToString(path, &text).ok()) return Fail("cannot open " + path);

  JsonValue trace;
  std::string error;
  if (!ParseJson(text, &trace, &error)) return Fail("bad JSON: " + error);
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("no traceEvents array");
  }

  uint64_t dropped = 0;
  if (const JsonValue* other = trace.Find("otherData")) {
    if (const JsonValue* d = other->Find("dropped")) {
      if (d->is_number()) dropped = static_cast<uint64_t>(d->number_value);
    }
  }

  std::map<uint64_t, std::vector<Span>> by_thread;
  std::map<uint64_t, std::string> thread_names;
  std::set<std::string> span_names;
  size_t num_events = 0;
  for (const JsonValue& event : events->items) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* tid = event.Find("tid");
    const JsonValue* name = event.Find("name");
    if (ph == nullptr || !ph->is_string() || tid == nullptr ||
        !tid->is_number() || name == nullptr || !name->is_string()) {
      return Fail("malformed trace event");
    }
    const uint64_t thread = static_cast<uint64_t>(tid->number_value);
    if (ph->string_value == "M") {
      if (name->string_value == "thread_name") {
        if (const JsonValue* args = event.Find("args")) {
          if (const JsonValue* tname = args->Find("name")) {
            thread_names[thread] = tname->string_value;
          }
        }
      }
      continue;
    }
    if (ph->string_value != "X") continue;
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    if (ts == nullptr || !ts->is_number() || dur == nullptr ||
        !dur->is_number()) {
      return Fail("X event without ts/dur");
    }
    Span span;
    span.name = name->string_value;
    span.tid = thread;
    span.start_us = static_cast<uint64_t>(ts->number_value);
    span.dur_us = static_cast<uint64_t>(dur->number_value);
    span_names.insert(span.name);
    by_thread[thread].push_back(std::move(span));
    ++num_events;
  }

  std::printf("trace: %zu events, %zu span names, %zu threads, %llu dropped\n",
              num_events, span_names.size(), by_thread.size(),
              static_cast<unsigned long long>(dropped));

  std::map<std::string, NameStats> overall;
  std::map<uint64_t, std::map<std::string, NameStats>> per_thread;
  for (auto& [thread, spans] : by_thread) {
    AccumulateThread(spans, &per_thread[thread]);
    AccumulateThread(std::move(spans), &overall);
  }
  PrintTable("all threads:", overall, top);
  for (const auto& [thread, stats] : per_thread) {
    const auto name_it = thread_names.find(thread);
    const std::string label =
        name_it == thread_names.end() ? "?" : name_it->second;
    PrintTable("thread " + std::to_string(thread) + " (" + label + "):",
               stats, top);
  }
  return 0;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr, "usage: lamo_trace_summary <trace.json> [--top N]\n"
                         "  --top N  rows per table, N >= 1 (default 10)\n");
    return 2;
  };
  if (argc < 2) return usage();
  size_t top = 10;
  for (int i = 2; i < argc; ++i) {
    uint64_t parsed = 0;
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc &&
        lamo::ParseUint64(argv[i + 1], &parsed) && parsed >= 1) {
      top = static_cast<size_t>(parsed);
      ++i;
      continue;
    }
    std::fprintf(stderr, "error: bad argument \"%s\"%s\n", argv[i],
                 std::strcmp(argv[i], "--top") == 0
                     ? " (--top takes an integer >= 1)"
                     : "");
    return usage();
  }
  return lamo::Summarize(argv[1], top);
}
