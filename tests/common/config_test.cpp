#include "common/config.hpp"

#include <gtest/gtest.h>

namespace sst {
namespace {

TEST(ConfigParse, FromArgsBasic) {
  auto cfg = Config::from_args({"a=1", "b=hello", "c=3.5"});
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().get_uint("a", 0), 1);
  EXPECT_EQ(cfg.value().get_string("b", ""), "hello");
  EXPECT_DOUBLE_EQ(cfg.value().get_double("c", 0.0), 3.5);
}

TEST(ConfigParse, FromArgsRejectsMissingEquals) {
  EXPECT_FALSE(Config::from_args({"novalue"}).ok());
}

TEST(ConfigParse, FromArgsRejectsEmptyKey) {
  EXPECT_FALSE(Config::from_args({"=5"}).ok());
}

TEST(ConfigParse, LaterValueWins) {
  auto cfg = Config::from_args({"a=1", "a=2"});
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().get_uint("a", 0), 2);
}

TEST(ConfigParse, FromTextWithCommentsAndBlanks) {
  auto cfg = Config::from_text("# header\n a = 1 \n\nb=two # trailing\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().get_uint("a", 0), 1);
  EXPECT_EQ(cfg.value().get_string("b", ""), "two");
}

TEST(ConfigParse, FromTextRejectsGarbage) {
  EXPECT_FALSE(Config::from_text("justaword\n").ok());
}

TEST(ConfigGetters, MissingKeyReturnsFallback) {
  Config cfg;
  EXPECT_EQ(cfg.get_uint("missing", 42), 42u);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_EQ(cfg.get_bytes("missing", 7), 7u);
  EXPECT_EQ(cfg.get_duration("missing", 9), 9u);
  EXPECT_TRUE(cfg.status(true).ok());
}

TEST(ConfigGetters, MalformedIntFallsBack) {
  Config cfg;
  cfg.set("a", "12x");
  EXPECT_EQ(cfg.get_uint("a", 7), 7u);
  ASSERT_FALSE(cfg.status(false).ok());
  EXPECT_EQ(cfg.status(false).error().message, "a: expected a non-negative integer, got '12x'");
}

TEST(ConfigGetters, UnusableValuesFallBackAndNameTheirKey) {
  // Each getter returns its fallback for a value it cannot use and records
  // an error naming the key.
  const auto check = [](const char* key, const char* value, auto read) {
    Config cfg;
    cfg.set(key, value);
    read(cfg);
    const Status status = cfg.status(false);
    ASSERT_FALSE(status.ok()) << key << "=" << value;
    EXPECT_NE(status.error().message.find(key), std::string::npos) << status.error().message;
  };
  check("count", "4x", [](const Config& c) { EXPECT_EQ(c.get_uint("count", 3), 3u); });
  check("count", "-1", [](const Config& c) { EXPECT_EQ(c.get_uint32("count", 3), 3u); });
  check("count", "4294967296",
        [](const Config& c) { EXPECT_EQ(c.get_uint32("count", 3), 3u); });
  check("rate", "fast", [](const Config& c) { EXPECT_EQ(c.get_double("rate", 0.5), 0.5); });
  check("flag", "maybe", [](const Config& c) { EXPECT_TRUE(c.get_bool("flag", true)); });
  check("size", "8Q", [](const Config& c) { EXPECT_EQ(c.get_bytes("size", 7), 7u); });
  check("time", "2sec", [](const Config& c) { EXPECT_EQ(c.get_duration("time", 9), 9u); });
  check("mode", "fifo", [](const Config& c) {
    EXPECT_EQ(c.get_choice("mode", 1, {{"one", 1}, {"two", 2}}), 1);
  });
  // The largest 32-bit count is in range.
  Config max;
  max.set("count", "4294967295");
  EXPECT_EQ(max.get_uint32("count", 3), 4294967295u);
  EXPECT_TRUE(max.status(true).ok());
}

TEST(ConfigGetters, FirstErrorWins) {
  Config cfg;
  cfg.set("a", "x");
  cfg.set("b", "y");
  (void)cfg.get_uint("b", 0);
  (void)cfg.get_uint("a", 0);
  EXPECT_EQ(cfg.status(true).error().message.rfind("b: ", 0), 0u);
}

TEST(ConfigGetters, UnreadKeyFailsOnlyTheFullCheck) {
  Config cfg;
  cfg.set("read", "1");
  cfg.set("typo", "2");
  EXPECT_EQ(cfg.get_uint("read", 0), 1u);
  EXPECT_TRUE(cfg.status(false).ok());
  const Status full = cfg.status(true);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().message, "unknown key: typo");
  (void)cfg.get_string("typo", "");
  EXPECT_TRUE(cfg.status(true).ok());
}

TEST(ConfigBytes, PlainNumber) {
  EXPECT_EQ(Config::parse_bytes("4096").value(), 4096u);
}

TEST(ConfigBytes, KiloMegaGiga) {
  EXPECT_EQ(Config::parse_bytes("64K").value(), 64 * KiB);
  EXPECT_EQ(Config::parse_bytes("8M").value(), 8 * MiB);
  EXPECT_EQ(Config::parse_bytes("2G").value(), 2 * GiB);
}

TEST(ConfigBytes, SuffixVariantsAndCase) {
  EXPECT_EQ(Config::parse_bytes("1kb").value(), KiB);
  EXPECT_EQ(Config::parse_bytes("1KiB").value(), KiB);
  EXPECT_EQ(Config::parse_bytes("3mb").value(), 3 * MiB);
}

TEST(ConfigBytes, FractionalValue) {
  EXPECT_EQ(Config::parse_bytes("0.5M").value(), 512 * KiB);
}

TEST(ConfigBytes, RejectsNegative) { EXPECT_FALSE(Config::parse_bytes("-5K").ok()); }

TEST(ConfigBytes, RejectsUnknownSuffix) { EXPECT_FALSE(Config::parse_bytes("5Q").ok()); }

TEST(ConfigBytes, RejectsEmpty) { EXPECT_FALSE(Config::parse_bytes("").ok()); }

TEST(ConfigDuration, Units) {
  EXPECT_EQ(Config::parse_duration("5").value(), 5u);
  EXPECT_EQ(Config::parse_duration("5ns").value(), 5u);
  EXPECT_EQ(Config::parse_duration("3us").value(), usec(3));
  EXPECT_EQ(Config::parse_duration("7ms").value(), msec(7));
  EXPECT_EQ(Config::parse_duration("2s").value(), sec(2));
}

TEST(ConfigDuration, Fractional) {
  EXPECT_EQ(Config::parse_duration("1.5ms").value(), usec(1500));
}

TEST(ConfigDuration, RejectsUnknownSuffix) {
  EXPECT_FALSE(Config::parse_duration("5h").ok());
}

TEST(ConfigBool, Truthy) {
  for (const char* v : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
    EXPECT_TRUE(Config::parse_bool(v).value()) << v;
  }
}

TEST(ConfigBool, Falsy) {
  for (const char* v : {"0", "false", "no", "off", "FALSE"}) {
    EXPECT_FALSE(Config::parse_bool(v).value()) << v;
  }
}

TEST(ConfigBool, RejectsOther) { EXPECT_FALSE(Config::parse_bool("maybe").ok()); }

TEST(ConfigChecked, PresentKeyParses) {
  Config cfg;
  cfg.set("size", "16M");
  cfg.set("t", "10ms");
  EXPECT_EQ(cfg.get_bytes("size", 0), 16 * MiB);
  EXPECT_EQ(cfg.get_duration("t", 0), msec(10));
  EXPECT_TRUE(cfg.status(true).ok());
}

TEST(ConfigBytes, RejectsOutOfRange) {
  EXPECT_FALSE(Config::parse_bytes("99999999999G").ok());
  EXPECT_FALSE(Config::parse_duration("99999999999s").ok());
}

}  // namespace
}  // namespace sst
