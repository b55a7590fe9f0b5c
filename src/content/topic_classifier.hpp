// Multinomial naive-Bayes topic classification over bags of words —
// the algorithm family behind the Mallet / uClassify tooling the paper
// used for Fig. 2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "content/topics.hpp"
#include "util/rng.hpp"

namespace torsim::content {

/// A labelled training document.
struct LabeledDoc {
  Topic topic;
  std::string text;
};

/// Classification result.
struct TopicGuess {
  Topic topic = Topic::kOther;
  double confidence = 0.0;  ///< winning-class posterior share
};

class TopicClassifier {
 public:
  /// Trains from labelled documents (add-one smoothing, class priors
  /// from label frequencies).
  void train(const std::vector<LabeledDoc>& docs);

  /// Classifies a document; requires train() first.
  TopicGuess classify(std::string_view text) const;

  bool trained() const { return !rows_.empty(); }

  /// Convenience: trains on `docs_per_topic` synthetic documents per
  /// topic produced by the page generator — the analogue of training
  /// Mallet on a hand-labelled seed corpus.
  static TopicClassifier make_default(util::Rng& rng,
                                      int docs_per_topic = 40,
                                      int words_per_doc = 120);

 private:
  /// Per-topic log-probabilities of one word.
  using Row = std::array<double, kNumTopics>;

  /// Hashes any string-like key, so vocab_ looks words up by
  /// std::string_view without building a std::string.
  struct WordHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view word) const {
      return std::hash<std::string_view>{}(word);
    }
  };

  /// Adds the row of every word of `lower` (lowercase letters, words
  /// separated by spaces) to `scores`, in word order; returns how many
  /// words were scored.
  std::size_t score_words(std::string_view lower, Row& scores) const;

  Row class_log_prior_{};
  /// Lookup-only (never iterated): training-vocabulary word -> row index.
  std::unordered_map<std::string, std::uint32_t, WordHash, std::equal_to<>>
      vocab_;
  /// rows_[0] is the log_fallback row: each topic's Laplace mass of a
  /// word it never saw. A vocabulary word's row holds that value for
  /// every topic whose training text lacks it.
  std::vector<Row> rows_;
};

}  // namespace torsim::content
