#include "io/motif_io.h"

#include <fstream>
#include <map>
#include <sstream>

#include "graph/canonical.h"
#include "util/atomic_io.h"
#include "util/string_util.h"

namespace lamo {
namespace {

void WriteEdges(std::ostream& out, const SmallGraph& pattern) {
  out << "edges";
  for (const auto& [a, b] : pattern.Edges()) {
    out << " " << a << "-" << b;
  }
  out << "\n";
}

void WriteOccurrences(std::ostream& out, const OccurrenceList& occurrences) {
  for (const std::span<const VertexId> occ : occurrences) {
    out << "occ";
    for (const VertexId p : occ) out << " " << p;
    out << "\n";
  }
}

/// Writes `title`, then each motif as `render` puts it, through the chunked
/// WriteFileAtomic: one motif is rendered at a time, never the whole file.
template <typename M, typename Render>
Status WriteEachMotif(const std::string& path, std::string_view title,
                      const std::vector<M>& motifs, const Render& render) {
  std::ostringstream out;
  size_t next = 0;  // 0 is the title, i + 1 is motifs[i]
  return WriteFileAtomic(path, [&](std::string_view* chunk) {
    if (next > motifs.size()) return false;
    out.str("");
    if (next == 0) {
      out << title;
    } else {
      render(out, motifs[next - 1]);
    }
    ++next;
    *chunk = out.view();
    return true;
  });
}

Status ParseEdges(const std::string_view line, size_t n, SmallGraph* out) {
  *out = SmallGraph(n);
  std::istringstream fields{std::string(Trim(line.substr(5)))};
  std::string token;
  while (fields >> token) {
    const size_t dash = token.find('-');
    if (dash == std::string::npos) {
      return Status::Corruption("bad edge token: " + token);
    }
    uint64_t a = 0, b = 0;
    if (!ParseUint64(token.substr(0, dash), &a) ||
        !ParseUint64(token.substr(dash + 1), &b) || a >= n || b >= n ||
        a == b) {
      return Status::Corruption("bad edge token: " + token);
    }
    out->AddEdge(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  }
  return Status::OK();
}

Status ParseOccurrence(const std::string_view line, size_t n,
                       OccurrenceList* occurrences) {
  // A bare "occ" line (no trailing space) is shorter than the prefix we
  // strip; substr past the end throws on string_view.
  if (line.size() < 4) return Status::Corruption("occurrence arity mismatch");
  std::istringstream fields{std::string(Trim(line.substr(4)))};
  VertexId occ[SmallGraph::kMaxVertices];
  size_t count = 0;
  uint64_t p = 0;
  while (fields >> p) {
    if (count == n) return Status::Corruption("occurrence arity mismatch");
    occ[count++] = static_cast<VertexId>(p);
  }
  if (count != n) return Status::Corruption("occurrence arity mismatch");
  occurrences->push_back(std::span<const VertexId>(occ, n));
  return Status::OK();
}

}  // namespace

Status WriteMotifs(const std::vector<Motif>& motifs,
                   const std::string& path) {
  // Replaced atomically: a crash mid-write must never leave a torn motif
  // file behind.
  return WriteEachMotif(path, "# lamo motifs\n", motifs,
                        [](std::ostream& out, const Motif& m) {
                          out << "motif " << m.size() << " " << m.frequency
                              << " " << m.uniqueness << "\n";
                          WriteEdges(out, m.pattern);
                          WriteOccurrences(out, m.occurrences);
                          out << "end\n";
                        });
}

StatusOr<std::vector<Motif>> ReadMotifs(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<Motif> motifs;
  Motif current;
  bool in_motif = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "motif ")) {
      if (in_motif) return Status::Corruption(path + ": nested motif");
      in_motif = true;
      current = Motif();
      std::istringstream fields{std::string(trimmed.substr(6))};
      size_t n = 0;
      if (!(fields >> n >> current.frequency >> current.uniqueness)) {
        return Status::Corruption(path + ": bad motif header");
      }
      // Validate before SmallGraph(n): its constructor CHECK-fails on
      // oversized n, and corrupt input must never abort the process.
      if (n < 2 || n > SmallGraph::kMaxVertices) {
        return Status::Corruption(path + ": motif size out of range");
      }
      current.pattern = SmallGraph(n);
      current.occurrences = OccurrenceList(n);
    } else if (StartsWith(trimmed, "edges")) {
      if (!in_motif) return Status::Corruption(path + ": stray edges");
      LAMO_RETURN_IF_ERROR(ParseEdges(
          trimmed, current.pattern.num_vertices(), &current.pattern));
    } else if (StartsWith(trimmed, "occ")) {
      if (!in_motif) return Status::Corruption(path + ": stray occ");
      LAMO_RETURN_IF_ERROR(ParseOccurrence(
          trimmed, current.pattern.num_vertices(), &current.occurrences));
    } else if (trimmed == "end") {
      if (!in_motif) return Status::Corruption(path + ": stray end");
      current.code = CanonicalCode(current.pattern);
      motifs.push_back(std::move(current));
      in_motif = false;
    } else {
      return Status::Corruption(path + ": unrecognized line: " +
                                std::string(trimmed));
    }
  }
  if (in_motif) return Status::Corruption(path + ": unterminated motif");
  return motifs;
}

Status WriteLabeledMotifs(const std::vector<LabeledMotif>& motifs,
                          const Ontology& ontology, const std::string& path) {
  return WriteEachMotif(
      path, "# lamo labeled motifs\n", motifs,
      [&](std::ostream& out, const LabeledMotif& m) {
        out << "labeled " << m.size() << " " << m.frequency << " "
            << m.uniqueness << " " << m.strength << "\n";
        WriteEdges(out, m.pattern);
        for (size_t pos = 0; pos < m.scheme.size(); ++pos) {
          if (m.scheme[pos].empty()) continue;
          out << "labels " << pos << " ";
          for (size_t i = 0; i < m.scheme[pos].size(); ++i) {
            if (i > 0) out << ",";
            out << ontology.TermName(m.scheme[pos][i]);
          }
          out << "\n";
        }
        WriteOccurrences(out, m.occurrences);
        out << "end\n";
      });
}

StatusOr<std::vector<LabeledMotif>> ReadLabeledMotifs(
    const std::string& path, const Ontology& ontology) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  std::map<std::string, TermId> ids;
  for (TermId t = 0; t < ontology.num_terms(); ++t) {
    ids[ontology.TermName(t)] = t;
  }

  std::vector<LabeledMotif> motifs;
  LabeledMotif current;
  bool in_motif = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "labeled ")) {
      if (in_motif) return Status::Corruption(path + ": nested motif");
      in_motif = true;
      current = LabeledMotif();
      std::istringstream fields{std::string(trimmed.substr(8))};
      size_t n = 0;
      if (!(fields >> n >> current.frequency >> current.uniqueness >>
            current.strength)) {
        return Status::Corruption(path + ": bad labeled header");
      }
      if (n < 2 || n > SmallGraph::kMaxVertices) {
        return Status::Corruption(path + ": motif size out of range");
      }
      current.pattern = SmallGraph(n);
      current.occurrences = OccurrenceList(n);
      current.scheme.assign(n, {});
    } else if (StartsWith(trimmed, "edges")) {
      if (!in_motif) return Status::Corruption(path + ": stray edges");
      LAMO_RETURN_IF_ERROR(ParseEdges(
          trimmed, current.pattern.num_vertices(), &current.pattern));
    } else if (StartsWith(trimmed, "labels ")) {
      if (!in_motif) return Status::Corruption(path + ": stray labels");
      std::istringstream fields{std::string(trimmed.substr(7))};
      size_t pos = 0;
      std::string terms;
      if (!(fields >> pos >> terms) || pos >= current.scheme.size()) {
        return Status::Corruption(path + ": bad labels line");
      }
      for (const std::string& name : Split(terms, ',')) {
        auto it = ids.find(name);
        if (it == ids.end()) {
          return Status::Corruption(path + ": unknown term " + name);
        }
        current.scheme[pos].push_back(it->second);
      }
    } else if (StartsWith(trimmed, "occ")) {
      if (!in_motif) return Status::Corruption(path + ": stray occ");
      LAMO_RETURN_IF_ERROR(ParseOccurrence(
          trimmed, current.pattern.num_vertices(), &current.occurrences));
    } else if (trimmed == "end") {
      if (!in_motif) return Status::Corruption(path + ": stray end");
      current.code = CanonicalCode(current.pattern);
      motifs.push_back(std::move(current));
      in_motif = false;
    } else {
      return Status::Corruption(path + ": unrecognized line: " +
                                std::string(trimmed));
    }
  }
  if (in_motif) return Status::Corruption(path + ": unterminated motif");
  return motifs;
}

}  // namespace lamo
