// Ablations of LaMoFinder's design choices (called out in DESIGN.md):
//
//  1. Symmetric-set semantics for Eq. 3: twin classes (paper-faithful,
//     every within-set pairing is an automorphism) vs full automorphism
//     orbits (looser pooling).
//  2. Eq.-5 delta source: scheme labels (dictionary reading) vs occurrence
//     proteins.
//
// Each ablation reruns the Figure-9 pipeline on a small dataset and reports
// the AUC deltas.
#include <iostream>

#include "core/lamofinder.h"
#include "core/occurrence_similarity.h"
#include "motif/uniqueness.h"
#include "predict/dataset_context.h"
#include "predict/evaluation.h"
#include "predict/labeled_motif_predictor.h"
#include "synth/dataset.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace lamo;
  std::cout << "=== Ablations: symmetry semantics and Eq.-5 delta source "
               "===\n\n";

  SyntheticDatasetConfig config = MipsScaleConfig();
  config.num_proteins = 600;
  config.copies_per_template = 35;
  config.template_min_size = 4;
  config.template_max_size = 5;
  config.role_annotation_probability = 0.9;
  config.complex_template_fraction = 0.0;
  config.informative_threshold = 6;
  const SyntheticDataset dataset = BuildSyntheticDataset(config);

  MotifFindingConfig motif_config;
  motif_config.miner.min_size = 4;
  motif_config.miner.max_size = 5;
  motif_config.miner.min_frequency = 25;
  motif_config.uniqueness.num_random_networks = 8;
  motif_config.uniqueness_threshold = 0.95;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 8;
  label_config.max_occurrences = 150;
  const auto labeled = finder.LabelAll(motifs, label_config);
  std::cout << motifs.size() << " motifs -> " << labeled.size()
            << " labeled motifs\n\n";

  const PredictionContext context = BuildPredictionContext(dataset);

  // --- Ablation 2: delta source. ---
  LabeledMotifPredictor scheme_mode(context, dataset.ontology, labeled,
                                    LabeledMotifPredictor::DeltaMode::
                                        kSchemeLabels);
  LabeledMotifPredictor occurrence_mode(
      context, dataset.ontology, labeled,
      LabeledMotifPredictor::DeltaMode::kOccurrenceProteins);

  EvaluationConfig eval;
  for (ProteinId p = 0; p < dataset.ppi.num_vertices(); ++p) {
    if (context.IsAnnotated(p) && scheme_mode.Covers(p)) {
      eval.evaluation_set.push_back(p);
    }
  }

  TablePrinter delta_table({"Eq.-5 delta source", "P@1", "AUC"});
  for (const LabeledMotifPredictor* predictor :
       {&scheme_mode, &occurrence_mode}) {
    const PrCurve curve = EvaluateLeaveOneOut(*predictor, context, eval);
    delta_table.AddRow({predictor == &scheme_mode ? "scheme labels (paper)"
                                                  : "occurrence proteins",
                        FormatDouble(curve.points[0].precision, 3),
                        FormatDouble(AreaUnderPrCurve(curve), 3)});
  }
  delta_table.Print(std::cout);

  // --- Ablation 1: symmetry semantics, measured on similarity scores. ---
  std::cout << "\nSymmetric-set semantics (per-motif SO of the first two "
               "occurrences):\n\n";
  TablePrinter sym_table({"motif", "twin sets", "full orbits",
                          "SO twin", "SO orbits"});
  TermSimilarity st(dataset.ontology, dataset.weights);
  size_t shown = 0;
  for (const Motif& motif : motifs) {
    if (motif.occurrences.size() < 2 || shown >= 6) continue;
    ++shown;
    OccurrenceSimilarity twin(st, motif.pattern,
                              OccurrenceSimilarity::SymmetryMode::kTwinSets);
    OccurrenceSimilarity orbits(
        st, motif.pattern, OccurrenceSimilarity::SymmetryMode::kFullOrbits);
    auto profile = [&](std::span<const VertexId> occ) {
      LabelProfile result(occ.size());
      for (size_t pos = 0; pos < occ.size(); ++pos) {
        const auto terms = dataset.annotations.TermsOf(occ[pos]);
        result[pos].assign(terms.begin(), terms.end());
      }
      return result;
    };
    const LabelProfile a = profile(motif.occurrences[0]);
    const LabelProfile b = profile(motif.occurrences[1]);
    size_t twin_pooled = 0, orbit_pooled = 0;
    for (const auto& cls : twin.orbits()) {
      if (cls.size() > 1) twin_pooled += cls.size();
    }
    for (const auto& cls : orbits.orbits()) {
      if (cls.size() > 1) orbit_pooled += cls.size();
    }
    sym_table.AddRow({motif.ToString(), std::to_string(twin_pooled),
                      std::to_string(orbit_pooled),
                      FormatDouble(twin.Score(a, b), 3),
                      FormatDouble(orbits.Score(a, b), 3)});
  }
  sym_table.Print(std::cout);
  std::cout << "\nFull orbits pool at least as many vertices as twin sets, "
               "so SO(orbits) >= SO(twin) — the looser mode can overestimate "
               "similarity by pairing vertices whose exchange is not an "
               "independent automorphism.\n";
  return 0;
}
