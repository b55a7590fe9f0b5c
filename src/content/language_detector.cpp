#include "content/language_detector.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <map>
#include <string>

#include "content/corpus.hpp"

namespace torsim::content {
namespace {

/// Lowercased, space-normalized copy of `text` with a space on each end.
/// Detection works on byte n-grams of this copy: byte n-grams make
/// multi-byte UTF-8 scripts (Cyrillic, CJK, Arabic) highly distinctive
/// without any Unicode machinery.
std::string normalize(std::string_view text) {
  std::string norm;
  norm.reserve(text.size() + 2);
  norm.push_back(' ');
  bool last_space = true;
  for (char c : text) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (uc < 0x80) {
      if (std::isalpha(uc)) {
        norm.push_back(static_cast<char>(std::tolower(uc)));
        last_space = false;
      } else if (!last_space) {
        norm.push_back(' ');
        last_space = true;
      }
    } else {
      norm.push_back(c);
      last_space = false;
    }
  }
  if (!last_space) norm.push_back(' ');
  return norm;
}

/// The encoded all-space gram of each length (index = n).
constexpr std::uint32_t kAllSpace[] = {0, 0x20, 0x2020, 0x202020};

/// Calls `visit(gram)` for every n-gram of `norm`, n = 1..3, that is not
/// all spaces: every 1-gram, then every 2-gram, then every 3-gram, each
/// left to right. A gram is encoded as its length in the top byte over
/// its bytes (first byte lowest), so no encoded gram is 0 and two grams
/// are equal exactly when their codes are. Training and detection both
/// walk grams through here; the order fixes each language's summation
/// order and so the bits of every score.
// detlint: hot
template <typename Visit>
void for_each_gram(std::string_view norm, Visit&& visit) {
  for (std::uint32_t n = 1; n <= 3; ++n) {
    for (std::size_t i = 0; i + n <= norm.size(); ++i) {
      std::uint32_t gram = n << 24;
      for (std::uint32_t k = 0; k < n; ++k)
        gram |= std::uint32_t{static_cast<unsigned char>(norm[i + k])}
                << (8 * k);
      if ((gram & 0xFFFFFFu) == kAllSpace[n]) continue;
      visit(gram);
    }
  }
}

/// Fibonacci hashing multiplier (2^32 / golden ratio).
constexpr std::uint32_t kHashMultiplier = 0x9E3779B1u;

}  // namespace

LanguageDetector::LanguageDetector() {
  // Relative frequencies with a *fixed* out-of-vocabulary penalty that
  // is identical for every language. Per-language Laplace smoothing
  // would reward tiny profiles (small vocabulary -> higher per-gram
  // mass); a shared floor makes scores comparable across profiles of
  // very different corpus sizes, as langdetect's normalized frequency
  // profiles do.
  constexpr double kOovProbability = 1e-5;
  const double log_fallback = std::log(kOovProbability);

  // Ordered by encoded gram, so the row layout does not depend on hash
  // order (one-time training cost).
  std::map<std::uint32_t, Row> table;
  for (int li = 0; li < kNumLanguages; ++li) {
    const Language lang = language_from_index(li);
    // Training text: the language's corpus words joined by spaces. The
    // English profile additionally trains on the topic vocabularies —
    // onion pages are content-heavy, and a function-words-only profile
    // under-scores them against other Latin-script languages (langdetect
    // likewise ships profiles built from full Wikipedia text).
    std::string training;
    for (std::string_view w : language_words(lang)) {
      training += w;
      training += ' ';
    }
    if (lang == Language::kEnglish) {
      for (int t = 0; t < kNumTopics; ++t) {
        for (std::string_view w : topic_keywords(topic_from_index(t))) {
          training += w;
          training += ' ';
        }
      }
    }
    std::map<std::uint32_t, double> counts;
    double total = 0.0;
    for_each_gram(normalize(training), [&](std::uint32_t gram) {
      counts[gram] += 1.0;
      total += 1.0;
    });
    for (const auto& [gram, count] : counts) {
      const double p = std::max(count / total, 2.0 * kOovProbability);
      const auto [it, fresh] = table.try_emplace(gram);
      if (fresh) it->second.fill(log_fallback);
      it->second[static_cast<std::size_t>(li)] = std::log(p);
    }
  }

  rows_.reserve(table.size() + 1);
  rows_.emplace_back().fill(log_fallback);
  const std::size_t slot_count = std::bit_ceil(2 * table.size());
  slots_.assign(slot_count, Slot{});
  slot_shift_ = 32 - std::countr_zero(slot_count);
  for (const auto& [gram, row] : table) {
    std::size_t s = (gram * kHashMultiplier) >> slot_shift_;
    while (slots_[s].gram != 0) s = (s + 1) & (slot_count - 1);
    slots_[s] = {gram, static_cast<std::uint32_t>(rows_.size())};
    rows_.push_back(row);
  }
}

std::uint32_t LanguageDetector::row_of(std::uint32_t gram) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = (gram * kHashMultiplier) >> slot_shift_;;
       s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.gram == gram) return slot.row;
    if (slot.gram == 0) return 0;
  }
}

// detlint: hot
std::size_t LanguageDetector::score_grams(std::string_view norm,
                                          Row& scores) const {
  std::size_t grams = 0;
  for_each_gram(norm, [&](std::uint32_t gram) {
    const Row& row = rows_[row_of(gram)];
    for (std::size_t l = 0; l < row.size(); ++l) scores[l] += row[l];
    ++grams;
  });
  return grams;
}

LanguageGuess LanguageDetector::detect(std::string_view text) const {
  Row scores{};
  const std::size_t grams = score_grams(normalize(text), scores);
  if (grams == 0) return {Language::kEnglish, 0.0};

  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  // Posterior share via log-sum-exp, normalized per n-gram to keep the
  // confidence scale comparable across document lengths.
  const double scale = 1.0 / static_cast<double>(grams);
  double denom = 0.0;
  for (double s : scores)
    denom += std::exp((s - scores[best]) * scale);
  const double confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return {language_from_index(static_cast<int>(best)), confidence};
}

const LanguageDetector& LanguageDetector::instance() {
  static const LanguageDetector detector;
  return detector;
}

}  // namespace torsim::content
