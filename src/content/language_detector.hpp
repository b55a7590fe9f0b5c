// Character n-gram naive-Bayes language detection — the same algorithm
// family as the "Langdetect" library the paper used (Shuyo 2010), with
// profiles built from the embedded per-language corpora.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "content/topics.hpp"

namespace torsim::content {

/// Detection result with the winning language's posterior share.
struct LanguageGuess {
  Language language = Language::kEnglish;
  double confidence = 0.0;  ///< normalized posterior in [0, 1]
};

class LanguageDetector {
 public:
  /// Builds profiles (1..3-byte n-grams) from the embedded corpora: each
  /// gram's relative frequency in its language's training text, with one
  /// shared out-of-vocabulary floor of 1e-5 for every language.
  LanguageDetector();

  /// Classifies text; uses n-gram log-likelihoods under each language
  /// profile. Empty/too-short text falls back to English at confidence 0.
  LanguageGuess detect(std::string_view text) const;

  /// Shared trained instance (profiles are immutable after construction).
  static const LanguageDetector& instance();

 private:
  /// Per-language log-probabilities of one n-gram.
  using Row = std::array<double, kNumLanguages>;

  /// One open-addressed slot: an encoded n-gram and its row index.
  struct Slot {
    std::uint32_t gram = 0;  ///< 0 = empty (no encoded gram is 0)
    std::uint32_t row = 0;
  };

  /// Index into rows_ of an encoded gram; 0 (the all-fallback row) when
  /// no profile contains it.
  std::uint32_t row_of(std::uint32_t gram) const;

  /// Adds the row of every scored n-gram of normalized text to `scores`,
  /// in gram order; returns how many grams were scored.
  std::size_t score_grams(std::string_view norm, Row& scores) const;

  /// Rows of the union of every profile's grams; rows_[0] holds the
  /// shared out-of-vocabulary log-probability in every column, and a
  /// profile that lacks a gram has that value in the gram's row too.
  std::vector<Row> rows_;
  /// Linear-probing table over rows_ (power-of-two size, load <= 1/2).
  std::vector<Slot> slots_;
  int slot_shift_ = 32;  ///< 32 - log2(slots_.size()), for the hash
};

}  // namespace torsim::content
