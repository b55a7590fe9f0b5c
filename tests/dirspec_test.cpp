#include <gtest/gtest.h>

#include "descriptor_fixture.hpp"
#include "dirauth/authority.hpp"
#include "dirspec/consensus_doc.hpp"
#include "dirspec/descriptor_doc.hpp"
#include "relay/registry.hpp"
#include "sim/world.hpp"

namespace torsim::dirspec {
namespace {

constexpr util::UnixTime kT0 = 1359676800;

dirauth::Consensus sample_consensus(int relays = 12) {
  util::Rng rng(1);
  relay::Registry registry;
  dirauth::Authority authority;
  for (int i = 0; i < relays; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "node" + std::to_string(i);
    rc.address = util::Ipv4::random_public(rng);
    rc.bandwidth_kbps = 100.0 + i;
    const auto id = registry.create(rc, rng, kT0 - 30 * 3600);
    registry.get(id).set_online(true, kT0 - 30 * 3600);
  }
  return authority.build_consensus(registry, kT0);
}

// ---------------------------------------------------------------------
// time parsing (added for dirspec)
// ---------------------------------------------------------------------

TEST(ParseUtcTest, RoundTrip) {
  for (util::UnixTime t : {0L, 1359936000L, 1696204800L}) {
    EXPECT_EQ(util::parse_utc(util::format_utc(t)), t);
  }
}

TEST(ParseUtcTest, RejectsMalformed) {
  EXPECT_THROW(util::parse_utc("2013-02-04"), std::invalid_argument);
  EXPECT_THROW(util::parse_utc("2013/02/04 10:00:00"), std::invalid_argument);
  EXPECT_THROW(util::parse_utc("2013-13-04 10:00:00"), std::out_of_range);
  EXPECT_THROW(util::parse_utc("2013-02-04 10:00:0x"), std::invalid_argument);
}

TEST(FlagsFromStringTest, RoundTrip) {
  dirauth::FlagSet set = 0;
  set = with_flag(set, dirauth::Flag::kFast);
  set = with_flag(set, dirauth::Flag::kHSDir);
  set = with_flag(set, dirauth::Flag::kRunning);
  EXPECT_EQ(dirauth::flags_from_string(dirauth::flags_to_string(set)), set);
  EXPECT_EQ(dirauth::flags_from_string(""), 0);
  EXPECT_THROW(dirauth::flags_from_string("Bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// consensus documents
// ---------------------------------------------------------------------

TEST(ConsensusDocTest, RenderContainsExpectedLines) {
  const auto consensus = sample_consensus(3);
  const auto text = render_consensus(consensus);
  EXPECT_NE(text.find("network-status-version 3"), std::string::npos);
  EXPECT_NE(text.find("valid-after 2013-02-01 00:00:00"), std::string::npos);
  EXPECT_NE(text.find("directory-footer"), std::string::npos);
  EXPECT_NE(text.find("w Bandwidth="), std::string::npos);
}

TEST(ConsensusDocTest, RoundTripPreservesEverything) {
  const auto consensus = sample_consensus();
  const auto parsed = parse_consensus(render_consensus(consensus));
  EXPECT_EQ(parsed.valid_after(), consensus.valid_after());
  ASSERT_EQ(parsed.size(), consensus.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& a = parsed.entries()[i];
    const auto& b = consensus.entries()[i];
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.nickname, b.nickname);
    EXPECT_EQ(a.address, b.address);
    EXPECT_EQ(a.or_port, b.or_port);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_NEAR(a.bandwidth_kbps, b.bandwidth_kbps, 0.5);
  }
  EXPECT_EQ(parsed.hsdir_count(), consensus.hsdir_count());
}

TEST(ConsensusDocTest, RoundTripPreservesRingSemantics) {
  const auto consensus = sample_consensus(20);
  const auto parsed = parse_consensus(render_consensus(consensus));
  crypto::DescriptorId id{};
  id[0] = 0x5a;
  const auto a = consensus.responsible_hsdirs(id);
  const auto b = parsed.responsible_hsdirs(id);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i]->fingerprint, b[i]->fingerprint);
}

TEST(ConsensusDocTest, ParseErrorsCarryLineNumbers) {
  try {
    parse_consensus("network-status-version 3\nvalid-after nonsense\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    // parse_utc throws its own message here; any exception is fine as
    // long as parsing fails loudly.
    SUCCEED();
  }
  EXPECT_THROW(parse_consensus("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_consensus("network-status-version 3\n"
                               "valid-after 2013-02-01 00:00:00\n"
                               "r only three fields\n"),
               std::invalid_argument);
}

TEST(ConsensusDocTest, ParseRejectsMissingFooter) {
  const auto consensus = sample_consensus(2);
  auto text = render_consensus(consensus);
  text = text.substr(0, text.find("directory-footer"));
  EXPECT_THROW(parse_consensus(text), std::invalid_argument);
}

TEST(ConsensusDocTest, ArchiveRoundTrip) {
  sim::WorldConfig wc;
  wc.seed = 3;
  wc.honest_relays = 40;
  sim::World world(wc);
  world.run_hours(5);
  const auto text = render_archive(world.archive());
  const auto parsed = parse_archive(text);
  ASSERT_EQ(parsed.size(), world.archive().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed.at(i).valid_after(), world.archive().at(i).valid_after());
    EXPECT_EQ(parsed.at(i).size(), world.archive().at(i).size());
  }
}

TEST(ConsensusDocTest, EmptyArchiveParses) {
  EXPECT_EQ(parse_archive("").size(), 0u);
  EXPECT_EQ(parse_archive("\n\n").size(), 0u);
}

// ---------------------------------------------------------------------
// descriptor documents
// ---------------------------------------------------------------------

TEST(DescriptorDocTest, RoundTrip) {
  util::Rng rng(4);
  const auto key = crypto::KeyPair::generate(rng);
  std::vector<crypto::Fingerprint> intro;
  for (int i = 0; i < 3; ++i) {
    crypto::Fingerprint fp;
    rng.fill_bytes(fp.data(), fp.size());
    intro.push_back(fp);
  }
  const auto original = test_support::make_descriptor(key, intro, 1, kT0);
  const auto parsed = parse_descriptor(render_descriptor(original));
  EXPECT_EQ(parsed.descriptor_id, original.descriptor_id);
  EXPECT_EQ(parsed.permanent_id, original.permanent_id);
  EXPECT_EQ(parsed.service_public_key, original.service_public_key);
  EXPECT_EQ(parsed.introduction_points, original.introduction_points);
  EXPECT_EQ(parsed.replica, original.replica);
  EXPECT_EQ(parsed.time_period, original.time_period);
  EXPECT_EQ(parsed.published, original.published);
  EXPECT_EQ(parsed.onion_address(), original.onion_address());
}

TEST(DescriptorDocTest, NoIntroPointsRoundTrip) {
  util::Rng rng(5);
  const auto key = crypto::KeyPair::generate(rng);
  const auto original = test_support::make_descriptor(key, {}, 0, kT0);
  const auto parsed = parse_descriptor(render_descriptor(original));
  EXPECT_TRUE(parsed.introduction_points.empty());
}

TEST(DescriptorDocTest, DetectsForgedDescriptorId) {
  util::Rng rng(6);
  const auto key = crypto::KeyPair::generate(rng);
  auto descriptor = test_support::make_descriptor(key, {}, 0, kT0);
  // Tamper: claim a different descriptor id.
  descriptor.descriptor_id[0] ^= 0xff;
  EXPECT_THROW(parse_descriptor(render_descriptor(descriptor)),
               std::invalid_argument);
}

TEST(DescriptorDocTest, DetectsWrongReplica) {
  util::Rng rng(7);
  const auto key = crypto::KeyPair::generate(rng);
  auto descriptor = test_support::make_descriptor(key, {}, 0, kT0);
  auto text = render_descriptor(descriptor);
  // Flip the replica field only: id check must fail.
  const auto pos = text.find(":0\n");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = '1';
  EXPECT_THROW(parse_descriptor(text), std::invalid_argument);
}

TEST(DescriptorDocTest, RejectsTruncated) {
  EXPECT_THROW(parse_descriptor(""), std::invalid_argument);
  EXPECT_THROW(parse_descriptor("rendezvous-service-descriptor abc\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace torsim::dirspec

namespace torsim::dirspec {
namespace {

// ---------------------------------------------------------------------
// mutation robustness: random single-byte corruptions of a rendered
// document must never crash the parser — they either parse to something
// (benign field change) or throw invalid_argument.
// ---------------------------------------------------------------------

class ParserMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserMutationTest, ConsensusParserNeverCrashes) {
  const auto consensus = sample_consensus(6);
  const std::string text = render_consensus(consensus);
  util::Rng rng(9000 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = text;
    const auto pos = rng.index(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    try {
      const auto parsed = parse_consensus(mutated);
      // If it parsed, basic invariants still hold.
      for (std::size_t i = 1; i < parsed.size(); ++i)
        EXPECT_LE(parsed.entries()[i - 1].fingerprint,
                  parsed.entries()[i].fingerprint);
    } catch (const std::invalid_argument&) {
      // Rejection is the expected outcome for most mutations.
    } catch (const std::out_of_range&) {
      // e.g. a corrupted date field.
    }
  }
}

TEST_P(ParserMutationTest, DescriptorParserNeverCrashes) {
  util::Rng key_rng(9100 + static_cast<std::uint64_t>(GetParam()));
  const auto key = crypto::KeyPair::generate(key_rng);
  const auto descriptor = test_support::make_descriptor(key, {}, 0, kT0);
  const std::string text = render_descriptor(descriptor);
  util::Rng rng(9200 + static_cast<std::uint64_t>(GetParam()));
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = text;
    const auto pos = rng.index(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    try {
      (void)parse_descriptor(mutated);
      ++accepted;
    } catch (const std::exception&) {
    }
  }
  // The embedded integrity check (descriptor id vs permanent key) makes
  // almost every content mutation detectable.
  EXPECT_LT(accepted, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutationTest, ::testing::Range(0, 3));

// ---------------------------------------------------------------------
// structural robustness: truncation at every line boundary, reordered
// keyword lines, and corrupted base16/base32 fields must all surface as
// parse errors (or benign parses), never UB or a crash.
// ---------------------------------------------------------------------

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
  return starts;
}

TEST(ParserTruncationTest, ConsensusTruncatedAtEveryLineBoundary) {
  const std::string text = render_consensus(sample_consensus(5));
  for (std::size_t start : line_starts(text)) {
    if (start == 0) continue;
    const std::string truncated = text.substr(0, start);
    try {
      // A prefix that happens to end right after the footer is a valid
      // document; every other truncation must throw.
      (void)parse_consensus(truncated);
      EXPECT_NE(truncated.find("directory-footer"), std::string::npos);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(ParserTruncationTest, DescriptorTruncatedAtEveryLineBoundary) {
  util::Rng rng(41);
  const auto key = crypto::KeyPair::generate(rng);
  crypto::Fingerprint fp;
  rng.fill_bytes(fp.data(), fp.size());
  const std::string text =
      render_descriptor(test_support::make_descriptor(key, {fp}, 0, kT0));
  const auto starts = line_starts(text);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    // Dropping any suffix of lines loses a required keyword: the parser
    // must reject every strict prefix.
    EXPECT_THROW((void)parse_descriptor(text.substr(0, starts[i])),
                 std::invalid_argument)
        << "prefix of " << i << " lines";
  }
}

TEST(ParserReorderTest, ConsensusKeywordLinesReordered) {
  const std::string text = render_consensus(sample_consensus(5));
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl == std::string::npos ? text.size() : nl + 1;
  }
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto shuffled = lines;
    // Swap two random lines — keyword order is part of the grammar.
    const auto a = rng.index(shuffled.size());
    const auto b = rng.index(shuffled.size());
    std::swap(shuffled[a], shuffled[b]);
    std::string doc;
    for (const auto& line : shuffled) doc += line + "\n";
    try {
      const auto parsed = parse_consensus(doc);
      // A benign swap (e.g. a==b) must still yield a sane document.
      EXPECT_LE(parsed.size(), lines.size());
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(ParserCorruptionTest, CorruptedBase16FingerprintRejected) {
  const auto consensus = sample_consensus(4);
  const std::string text = render_consensus(consensus);
  // The "r <nick> <fp-hex> ..." router lines carry base16 fingerprints;
  // replace hex digits with non-hex garbage.
  const auto r_pos = text.find("\nr ");
  ASSERT_NE(r_pos, std::string::npos);
  const auto fp_pos = text.find(' ', text.find(' ', r_pos + 1) + 1) + 1;
  for (const char garbage : {'!', 'z', 'G', '~'}) {
    std::string corrupted = text;
    corrupted[fp_pos] = garbage;
    EXPECT_THROW((void)parse_consensus(corrupted), std::invalid_argument)
        << garbage;
  }
}

TEST(ParserCorruptionTest, CorruptedBase32DescriptorIdRejected) {
  util::Rng rng(43);
  const auto key = crypto::KeyPair::generate(rng);
  const std::string text =
      render_descriptor(test_support::make_descriptor(key, {}, 0, kT0));
  const auto id_pos = text.find(' ') + 1;  // after the leading keyword
  // '0', '1', '8', '9' and punctuation are outside the base32 alphabet.
  for (const char garbage : {'0', '1', '8', '9', '!', '_'}) {
    std::string corrupted = text;
    corrupted[id_pos] = garbage;
    EXPECT_THROW((void)parse_descriptor(corrupted), std::invalid_argument)
        << garbage;
  }
}

TEST(ParserRoundTripTest, SeededDescriptorRoundTripProperty) {
  // Property: for any generated descriptor (random key, intro count,
  // replica, publication time), render -> parse is the identity.
  util::Rng rng(44);
  for (int trial = 0; trial < 30; ++trial) {
    const auto key = crypto::KeyPair::generate(rng);
    std::vector<crypto::Fingerprint> intro(rng.uniform_int(0, 5));
    for (auto& fp : intro) rng.fill_bytes(fp.data(), fp.size());
    const auto replica =
        static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    const util::UnixTime published =
        kT0 + rng.uniform_int(0, 72) * util::kSecondsPerHour;
    const auto original =
        test_support::make_descriptor(key, intro, replica, published);
    const auto parsed = parse_descriptor(render_descriptor(original));
    EXPECT_EQ(parsed.descriptor_id, original.descriptor_id);
    EXPECT_EQ(parsed.introduction_points, original.introduction_points);
    EXPECT_EQ(parsed.replica, original.replica);
    EXPECT_EQ(parsed.published, original.published);
  }
}

TEST(ParserRoundTripTest, SeededConsensusRoundTripProperty) {
  for (int relays : {1, 2, 7, 19}) {
    const auto consensus = sample_consensus(relays);
    const auto parsed = parse_consensus(render_consensus(consensus));
    ASSERT_EQ(parsed.size(), consensus.size()) << relays;
    for (std::size_t i = 0; i < parsed.size(); ++i)
      EXPECT_EQ(parsed.entries()[i].fingerprint,
                consensus.entries()[i].fingerprint);
  }
}

}  // namespace
}  // namespace torsim::dirspec
