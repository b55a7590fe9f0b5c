// Differential suite for the flat-table naive-Bayes scorers
// (content/language_detector.hpp, content/topic_classifier.hpp): the
// string-keyed scorers they replaced — one std::unordered_map per
// language or topic, each n-gram or word hashed once per class — are
// kept below with their code verbatim and replayed against
// LanguageDetector::detect and TopicClassifier::classify. Every case
// asserts the same language or topic and a bit-equal confidence
// (memcmp), so a change in any class's summation order fails even where
// the argmax happens to agree. Inputs: generated pages for every
// language and topic, every crawl page of a seeded population,
// adversarial byte strings, and the whole Sec. IV funnel at threads
// 1/4/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "content/corpus.hpp"
#include "content/language_detector.hpp"
#include "content/page_generator.hpp"
#include "content/pipeline.hpp"
#include "content/topic_classifier.hpp"
#include "population/population.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace torsim::content {
namespace {

// ---------------------------------------------------------------------
// The references: the string-keyed scorers exactly as they were before
// the flat feature tables replaced them.
// ---------------------------------------------------------------------

namespace oracle {

class LanguageDetector {
 public:
  LanguageDetector();
  LanguageGuess detect(std::string_view text) const;

 private:
  struct Profile {
    /// Lookup-only (never iterated): hash map is safe and fast.
    std::unordered_map<std::string, double> log_prob;
    double log_fallback = -12.0;  ///< for unseen n-grams
  };

  static void extract_ngrams(std::string_view text,
                             std::vector<std::string>& out);

  std::vector<Profile> profiles_;  // indexed by Language
};

void LanguageDetector::extract_ngrams(std::string_view text,
                                      std::vector<std::string>& out) {
  // Byte-level n-grams, n = 1..3, over a lowercased, space-normalized
  // copy. Byte n-grams make multi-byte UTF-8 scripts (Cyrillic, CJK,
  // Arabic) highly distinctive without any Unicode machinery.
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

  for (std::size_t n = 1; n <= 3; ++n) {
    if (norm.size() < n) continue;
    for (std::size_t i = 0; i + n <= norm.size(); ++i) {
      std::string gram = norm.substr(i, n);
      if (gram.find_first_not_of(' ') == std::string::npos) continue;
      out.push_back(std::move(gram));
    }
  }
}

LanguageDetector::LanguageDetector() {
  profiles_.resize(kNumLanguages);
  for (int li = 0; li < kNumLanguages; ++li) {
    const Language lang = language_from_index(li);
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
    std::vector<std::string> grams;
    extract_ngrams(training, grams);

    std::map<std::string, double> counts;
    for (const std::string& g : grams) counts[g] += 1.0;
    const double total = static_cast<double>(grams.size());

    constexpr double kOovProbability = 1e-5;
    Profile& profile = profiles_[li];
    for (auto& [gram, count] : counts) {
      const double p = std::max(count / total, 2.0 * kOovProbability);
      profile.log_prob[gram] = std::log(p);
    }
    profile.log_fallback = std::log(kOovProbability);
  }
}

LanguageGuess LanguageDetector::detect(std::string_view text) const {
  std::vector<std::string> grams;
  extract_ngrams(text, grams);
  if (grams.empty()) return {Language::kEnglish, 0.0};

  std::vector<double> scores(kNumLanguages, 0.0);
  for (int li = 0; li < kNumLanguages; ++li) {
    const Profile& profile = profiles_[li];
    double score = 0.0;
    for (const std::string& g : grams) {
      const auto it = profile.log_prob.find(g);
      score += it != profile.log_prob.end() ? it->second
                                            : profile.log_fallback;
    }
    scores[li] = score;
  }

  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  const double scale = 1.0 / static_cast<double>(grams.size());
  double denom = 0.0;
  for (double s : scores)
    denom += std::exp((s - scores[best]) * scale);
  const double confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return {language_from_index(static_cast<int>(best)), confidence};
}

class TopicClassifier {
 public:
  void train(const std::vector<LabeledDoc>& docs);
  TopicGuess classify(std::string_view text) const;
  bool trained() const { return !class_log_prior_.empty(); }

 private:
  std::vector<double> class_log_prior_;                 // [topic]
  /// Lookup-only (never iterated): hash map is safe and fast.
  std::vector<std::unordered_map<std::string, double>> word_log_prob_;
  std::vector<double> log_fallback_;                    // [topic]
};

void TopicClassifier::train(const std::vector<LabeledDoc>& docs) {
  if (docs.empty()) throw std::invalid_argument("TopicClassifier: no docs");

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

  std::set<std::string> vocab;
  for (const auto& counts : word_count)
    for (const auto& [w, c] : counts) vocab.insert(w);
  const double v = static_cast<double>(vocab.size());

  class_log_prior_.assign(kNumTopics, 0.0);
  word_log_prob_.assign(kNumTopics, {});
  log_fallback_.assign(kNumTopics, 0.0);
  const double n_docs = static_cast<double>(docs.size());
  for (int cls = 0; cls < kNumTopics; ++cls) {
    class_log_prior_[cls] =
        std::log((class_count[cls] + 1.0) / (n_docs + kNumTopics));
    for (const auto& [w, c] : word_count[cls])
      word_log_prob_[cls][w] = std::log((c + 1.0) / (total_words[cls] + v));
    log_fallback_[cls] = class_count[cls] > 0.0
                             ? std::log(1.0 / (total_words[cls] + v))
                             : -1e9;
  }
}

TopicGuess TopicClassifier::classify(std::string_view text) const {
  if (!trained()) throw std::logic_error("TopicClassifier: not trained");
  const auto words = util::tokenize_words(text);
  std::vector<double> scores(kNumTopics);
  for (int cls = 0; cls < kNumTopics; ++cls) {
    double score = class_log_prior_[cls];
    for (const std::string& w : words) {
      const auto it = word_log_prob_[cls].find(w);
      score +=
          it != word_log_prob_[cls].end() ? it->second : log_fallback_[cls];
    }
    scores[cls] = score;
  }
  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  const double scale =
      words.empty() ? 1.0 : 1.0 / static_cast<double>(words.size());
  double denom = 0.0;
  for (double s : scores) denom += std::exp((s - scores[best]) * scale);
  TopicGuess guess;
  guess.topic = topic_from_index(static_cast<int>(best));
  guess.confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return guess;
}

}  // namespace oracle

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

const oracle::LanguageDetector& oracle_detector() {
  static const oracle::LanguageDetector detector;
  return detector;
}

/// Training documents as TopicClassifier::make_default draws them.
std::vector<LabeledDoc> training_docs(std::uint64_t seed, int docs_per_topic,
                                      int words_per_doc) {
  util::Rng rng(seed);
  PageGenerator generator;
  std::vector<LabeledDoc> docs;
  for (int t = 0; t < kNumTopics; ++t)
    for (int i = 0; i < docs_per_topic; ++i)
      docs.push_back({topic_from_index(t),
                      generator.generate_english(topic_from_index(t),
                                                 words_per_doc, rng)});
  return docs;
}

/// A flat-table classifier and its string-keyed oracle trained on the
/// same documents.
struct TopicPair {
  TopicClassifier flat;
  oracle::TopicClassifier keyed;
};

const TopicPair& default_topics() {
  static const TopicPair pair = [] {
    const auto docs = training_docs(13, 40, 120);
    TopicPair p;
    p.flat.train(docs);
    p.keyed.train(docs);
    return p;
  }();
  return pair;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Asserts the flat detector and classifier agree with their oracles
/// on `text`, language and topic exactly and confidence bit for bit.
void expect_same(std::string_view text, const TopicPair& topics,
                 const std::string& what) {
  const LanguageGuess lang = LanguageDetector::instance().detect(text);
  const LanguageGuess lang_ref = oracle_detector().detect(text);
  EXPECT_EQ(lang.language, lang_ref.language) << what;
  EXPECT_TRUE(same_bits(lang.confidence, lang_ref.confidence))
      << what << ": " << lang.confidence << " vs " << lang_ref.confidence;

  const TopicGuess topic = topics.flat.classify(text);
  const TopicGuess topic_ref = topics.keyed.classify(text);
  EXPECT_EQ(topic.topic, topic_ref.topic) << what;
  EXPECT_TRUE(same_bits(topic.confidence, topic_ref.confidence))
      << what << ": " << topic.confidence << " vs " << topic_ref.confidence;
}

const scan::CrawlReport& test_crawl() {
  static const auto crawl = [] {
    population::PopulationConfig config;
    config.seed = 23;
    config.scale = 0.05;
    const auto pop = population::Population::generate(config);
    const auto scan =
        scan::PortScanner(scan::ScanConfig{.threads = 4}).scan(pop);
    return scan::Crawler().crawl(pop, scan);
  }();
  return crawl;
}

// ---------------------------------------------------------------------
// Generated pages
// ---------------------------------------------------------------------

TEST(ContentDiff, GeneratedPagesEveryLanguageAndTopic) {
  PageGenerator gen;
  util::Rng rng(2024);
  for (int l = 0; l < kNumLanguages; ++l) {
    for (int t = 0; t < kNumTopics; ++t) {
      const Language lang = language_from_index(l);
      const Topic topic = topic_from_index(t);
      const std::string what = std::string(language_name(lang)) + "/" +
                               std::string(topic_name(topic));
      expect_same(gen.generate(topic, lang, 150, rng), default_topics(),
                  what);
    }
  }
  for (int t = 0; t < kNumTopics; ++t) {
    const Topic topic = topic_from_index(t);
    expect_same(gen.generate_english(topic, 200, rng), default_topics(),
                std::string(topic_name(topic)));
    expect_same(gen.generate_english_noisy(topic, 200, rng, 0.3),
                default_topics(), "noisy " + std::string(topic_name(topic)));
  }
  expect_same(gen.generate_stub(rng), default_topics(), "stub");
  expect_same(torhost_default_page(), default_topics(), "torhost");
}

TEST(ContentDiff, SmallTrainingSetsWithEmptyTopics) {
  // Only two topics have documents: the other sixteen score every word
  // with the -1e9 fallback, so their rows must carry it too.
  TopicPair pair;
  const std::vector<LabeledDoc> docs = {
      {Topic::kGames, "chess poker lottery casino bets"},
      {Topic::kScience, "physics chemistry theorem quantum Chess"}};
  pair.flat.train(docs);
  pair.keyed.train(docs);
  for (const char* text :
       {"a chess tournament with poker", "the quantum physics theorem",
        "", "nothing known here", "CHESS chess ChEsS"})
    expect_same(text, pair, text);
}

// ---------------------------------------------------------------------
// Crawl pages of a seeded population
// ---------------------------------------------------------------------

TEST(ContentDiff, EveryCrawlPageOfAScale005Population) {
  const auto& pages = test_crawl().pages;
  ASSERT_GT(pages.size(), 100u);
  for (const CrawlDestination& d : pages)
    expect_same(d.text, default_topics(),
                d.onion + ":" + std::to_string(d.port));
}

// ---------------------------------------------------------------------
// Adversarial inputs
// ---------------------------------------------------------------------

TEST(ContentDiff, AdversarialInputs) {
  std::vector<std::pair<std::string, std::string>> cases = {
      {"empty", ""},
      {"space", " "},
      {"punctuation only", "!!! ... ,,, ??? --- ((( ))) 12345 @#$%^&*"},
      {"single letter", "a"},
      {"single upper letter", "Q"},
      {"letter in punctuation", "...x..."},
      {"upper case", "THE QUICK BROWN FOX BUYS BITCOIN DRUGS ON THE MARKET"},
      {"mixed case", "ThE qUiCk BrOwN fOx"},
      {"utf8 cyrillic", "это очень важный документ для всех людей"},
      {"utf8 cjk", "这是一个非常重要的文件 日本語のテキスト"},
      {"utf8 arabic", "هذه وثيقة مهمة جدا"},
      // A 2-byte and a 3-byte character straddling every window offset.
      {"utf8 split windows", "aé aéb é€ €a a€b ab€ \xC3 \xE2\x82 x\xA9y"},
      {"lone continuation bytes", "\x80\x81\xBF word \xBF\x80"},
  };
  std::string high;
  for (int b = 0x80; b <= 0xFF; ++b) high.push_back(static_cast<char>(b));
  cases.emplace_back("raw bytes 0x80-0xff", high);
  cases.emplace_back("raw bytes with letters", "ab" + high + " cd " + high);
  cases.emplace_back("embedded NULs",
                     std::string("market\0drugs\0\0bitcoin\0", 23));
  cases.emplace_back("only NULs", std::string(16, '\0'));
  std::string all_bytes;
  for (int b = 0; b <= 0xFF; ++b) all_bytes.push_back(static_cast<char>(b));
  cases.emplace_back("every byte", all_bytes);

  // A 1 MB page: a generated page repeated, then cut mid-character.
  PageGenerator gen;
  util::Rng rng(77);
  const std::string unit =
      gen.generate(Topic::kDrugs, Language::kRussian, 300, rng) + " " +
      gen.generate_english(Topic::kHacking, 300, rng) + " ";
  std::string big;
  while (big.size() < (1u << 20)) big += unit;
  big.resize(1u << 20);
  cases.emplace_back("1 MB page", big);

  for (const auto& [what, text] : cases)
    expect_same(text, default_topics(), what);
}

// ---------------------------------------------------------------------
// The whole Sec. IV funnel at threads 1/4/8
// ---------------------------------------------------------------------

/// ContentPipeline::run's funnel with the oracle scorers, in input
/// order (port-443 duplicates, short pages and error pages excluded
/// before detection, TorHost placeholders before topic scoring).
PipelineResult oracle_pipeline(const std::vector<CrawlDestination>& pages,
                               const oracle::TopicClassifier& classifier) {
  PipelineResult result;
  result.destinations_total = pages.size();
  std::map<std::string, const CrawlDestination*> port80;
  for (const CrawlDestination& d : pages)
    if (d.connected && d.port == net::kPortHttp) port80[d.onion] = &d;
  for (const CrawlDestination& d : pages) {
    if (!d.connected) continue;
    ++result.connected;
    result.port_counts.add(d.port);
    if (util::count_words(d.text) < 20) {
      ++result.excluded_short;
      if (d.port == net::kPortSsh || util::starts_with(d.text, "SSH-"))
        ++result.excluded_ssh_banner;
      continue;
    }
    if (d.port == net::kPortHttps) {
      const auto it = port80.find(d.onion);
      if (it != port80.end() && it->second->text == d.text) {
        ++result.excluded_dup443;
        continue;
      }
    }
    if (d.error_page) {
      ++result.excluded_error;
      continue;
    }
    const LanguageGuess lang = oracle_detector().detect(d.text);
    ++result.classifiable;
    result.language_counts[static_cast<int>(lang.language)]++;
    if (lang.language != Language::kEnglish) continue;
    ++result.english;
    if (d.text == torhost_default_page()) {
      ++result.torhost_default;
      continue;
    }
    const TopicGuess topic = classifier.classify(d.text);
    result.topic_counts[static_cast<int>(topic.topic)]++;
    ++result.classified;
    result.services.push_back(
        {d.onion, d.port, lang.language, topic.topic, topic.confidence});
  }
  return result;
}

TEST(ContentDiff, PipelineMatchesOracleFunnelAtThreads1_4_8) {
  const auto& pages = test_crawl().pages;
  const PipelineResult expected =
      oracle_pipeline(pages, default_topics().keyed);
  ASSERT_GT(expected.classified, 20u);
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const PipelineResult got =
        ContentPipeline(default_topics().flat, LanguageDetector::instance(),
                        {.threads = threads})
            .run(pages);
    EXPECT_EQ(got.destinations_total, expected.destinations_total);
    EXPECT_EQ(got.connected, expected.connected);
    EXPECT_EQ(got.excluded_short, expected.excluded_short);
    EXPECT_EQ(got.excluded_ssh_banner, expected.excluded_ssh_banner);
    EXPECT_EQ(got.excluded_dup443, expected.excluded_dup443);
    EXPECT_EQ(got.excluded_error, expected.excluded_error);
    EXPECT_EQ(got.classifiable, expected.classifiable);
    EXPECT_EQ(got.english, expected.english);
    EXPECT_EQ(got.torhost_default, expected.torhost_default);
    EXPECT_EQ(got.classified, expected.classified);
    EXPECT_EQ(got.language_counts, expected.language_counts);
    EXPECT_EQ(got.topic_counts, expected.topic_counts);
    ASSERT_EQ(got.services.size(), expected.services.size());
    for (std::size_t i = 0; i < got.services.size(); ++i) {
      const ClassifiedService& a = got.services[i];
      const ClassifiedService& b = expected.services[i];
      EXPECT_EQ(a.onion, b.onion);
      EXPECT_EQ(a.port, b.port);
      EXPECT_EQ(a.language, b.language);
      EXPECT_EQ(a.topic, b.topic);
      EXPECT_TRUE(same_bits(a.topic_confidence, b.topic_confidence))
          << a.onion << ":" << a.port;
    }
  }
}

}  // namespace
}  // namespace torsim::content
