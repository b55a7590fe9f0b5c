#include "content/topic_classifier.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "content/page_generator.hpp"
#include "util/strings.hpp"

namespace torsim::content {

void TopicClassifier::train(const std::vector<LabeledDoc>& docs) {
  if (docs.empty()) throw std::invalid_argument("TopicClassifier: no docs");

  // Ordered maps at training time: the loops below iterate them, and
  // iteration order must not depend on hash layout (the lookup-only
  // vocab_ table stays hashed).
  std::vector<double> class_count(kNumTopics, 0.0);
  std::vector<std::map<std::string, double>> word_count(kNumTopics);
  std::vector<double> total_words(kNumTopics, 0.0);

  for (const LabeledDoc& doc : docs) {
    const int cls = static_cast<int>(doc.topic);
    class_count[cls] += 1.0;
    for (const std::string& w : util::tokenize_words(doc.text)) {
      word_count[cls][w] += 1.0;
      total_words[cls] += 1.0;
    }
  }

  // Shared vocabulary size for smoothing.
  std::set<std::string> vocab;
  for (const auto& counts : word_count)
    for (const auto& [w, c] : counts) vocab.insert(w);
  const double v = static_cast<double>(vocab.size());

  const double n_docs = static_cast<double>(docs.size());
  Row log_fallback{};
  for (int cls = 0; cls < kNumTopics; ++cls) {
    class_log_prior_[cls] =
        std::log((class_count[cls] + 1.0) / (n_docs + kNumTopics));
    // A class with no training documents must never win: its tiny word
    // total would otherwise give it the *highest* Laplace fallback.
    log_fallback[cls] = class_count[cls] > 0.0
                            ? std::log(1.0 / (total_words[cls] + v))
                            : -1e9;
  }

  // Rows in vocabulary (sorted) order, so the layout does not depend on
  // hash order.
  vocab_.clear();
  rows_.assign(vocab.size() + 1, log_fallback);
  std::uint32_t row = 0;
  for (const std::string& w : vocab) vocab_.emplace(w, ++row);
  for (int cls = 0; cls < kNumTopics; ++cls)
    for (const auto& [w, c] : word_count[cls])
      rows_[vocab_.find(w)->second][cls] =
          std::log((c + 1.0) / (total_words[cls] + v));
}

// detlint: hot
std::size_t TopicClassifier::score_words(std::string_view lower,
                                         Row& scores) const {
  std::size_t words = 0;
  for (std::size_t begin = lower.find_first_not_of(' ');
       begin != std::string_view::npos;
       begin = lower.find_first_not_of(' ', begin)) {
    const std::size_t end = std::min(lower.find(' ', begin), lower.size());
    const auto it = vocab_.find(lower.substr(begin, end - begin));
    const Row& row = rows_[it != vocab_.end() ? it->second : 0];
    for (std::size_t t = 0; t < row.size(); ++t) scores[t] += row[t];
    ++words;
    begin = end;
  }
  return words;
}

TopicGuess TopicClassifier::classify(std::string_view text) const {
  if (!trained()) throw std::logic_error("TopicClassifier: not trained");
  // The words util::tokenize_words would split off, lowercased in one
  // copy: letters keep their place, every other byte becomes a space.
  std::string lower(text);
  for (char& c : lower) {
    const auto uc = static_cast<unsigned char>(c);
    c = std::isalpha(uc) ? static_cast<char>(std::tolower(uc)) : ' ';
  }
  Row scores = class_log_prior_;
  const std::size_t words = score_words(lower, scores);
  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  const double scale = words == 0 ? 1.0 : 1.0 / static_cast<double>(words);
  double denom = 0.0;
  for (double s : scores) denom += std::exp((s - scores[best]) * scale);
  TopicGuess guess;
  guess.topic = topic_from_index(static_cast<int>(best));
  guess.confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return guess;
}

TopicClassifier TopicClassifier::make_default(util::Rng& rng,
                                              int docs_per_topic,
                                              int words_per_doc) {
  PageGenerator generator;
  std::vector<LabeledDoc> docs;
  docs.reserve(static_cast<std::size_t>(docs_per_topic) * kNumTopics);
  for (int t = 0; t < kNumTopics; ++t) {
    const Topic topic = topic_from_index(t);
    for (int i = 0; i < docs_per_topic; ++i)
      docs.push_back(
          {topic, generator.generate_english(topic, words_per_doc, rng)});
  }
  TopicClassifier classifier;
  classifier.train(docs);
  return classifier;
}

}  // namespace torsim::content
