// Unit tests for the utility layer: contracts, CSV, tables, CLI, logging.
#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace fcr {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(FCR_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(FCR_CHECK_MSG(true, "never shown"));
  EXPECT_NO_THROW(FCR_ENSURE_ARG(true, "never shown"));
}

TEST(Check, FailingCheckThrowsContractViolationWithLocation) {
  try {
    FCR_CHECK(2 + 2 == 5);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Check, FailingCheckMsgIncludesMessage) {
  try {
    FCR_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, EnsureArgThrowsInvalidArgument) {
  EXPECT_THROW(FCR_ENSURE_ARG(false, "bad input"), std::invalid_argument);
}

TEST(Check, ContractViolationIsLogicError) {
  EXPECT_THROW(FCR_CHECK(false), std::logic_error);
}

// ---------------------------------------------------------------------- csv

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  csv.row({"1", "2"});
  csv.row({"x", "y"});
  EXPECT_EQ(os.str(), "a,b\n1,2\nx,y\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os, {"field"});
  csv.row({"has,comma"});
  csv.row({"has\"quote"});
  csv.row({"has\nnewline"});
  EXPECT_EQ(os.str(),
            "field\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST(Csv, RejectsWrongArity) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

TEST(Csv, RejectsEmptyHeader) {
  std::ostringstream os;
  EXPECT_THROW(CsvWriter(os, {}), std::invalid_argument);
}

TEST(Csv, NumericFormattingRoundTrips) {
  EXPECT_EQ(CsvWriter::num(std::int64_t{-42}), "-42");
  EXPECT_EQ(CsvWriter::num(std::uint64_t{42}), "42");
  const std::string d = CsvWriter::num(0.1);
  EXPECT_DOUBLE_EQ(std::stod(d), 0.1);
}

// -------------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.row({"1"}), std::invalid_argument);
}

TEST(Table, NumericFormatting) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(std::int64_t{-5}), "-5");
  EXPECT_EQ(TablePrinter::fmt(std::uint64_t{7}), "7");
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesTypedFlags) {
  CliParser cli("test");
  cli.add_flag("n", "10", "count");
  cli.add_flag("rate", "0.5", "rate");
  cli.add_flag("label", "foo", "label");
  cli.add_flag("fast", "false", "speed");
  const char* argv[] = {"prog", "--n=32", "--rate", "0.25", "--fast"};
  ASSERT_TRUE(cli.parse(5, argv)) << cli.error();
  EXPECT_EQ(cli.get_int("n"), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.25);
  EXPECT_EQ(cli.get_string("label"), "foo");
  EXPECT_TRUE(cli.get_bool("fast"));
}

TEST(Cli, NegatedBooleans) {
  CliParser cli("test");
  cli.add_flag("verbose", "true", "verbosity");
  const char* argv[] = {"prog", "--no-verbose"};
  ASSERT_TRUE(cli.parse(2, argv)) << cli.error();
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("unknown flag"), std::string::npos);
}

TEST(Cli, HelpRequested) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  std::ostringstream os;
  cli.print_help(os);
  EXPECT_NE(os.str().find("--help"), std::string::npos);
}

TEST(Cli, ListFlags) {
  CliParser cli("test");
  cli.add_flag("sizes", "1,2,4", "sizes");
  cli.add_flag("probs", "0.1,0.2", "probs");
  const char* argv[] = {"prog", "--sizes=8,16,32"};
  ASSERT_TRUE(cli.parse(2, argv)) << cli.error();
  EXPECT_EQ(cli.get_int_list("sizes"), (std::vector<std::int64_t>{8, 16, 32}));
  EXPECT_EQ(cli.get_double_list("probs"), (std::vector<double>{0.1, 0.2}));
}

TEST(Cli, MalformedNumbersThrowOnAccess) {
  CliParser cli("test");
  cli.add_flag("n", "10", "count");
  cli.add_flag("huge", "99999999999999999999", "past 64 bits");
  cli.add_flag("negative", "-1", "below zero");
  cli.add_flag("list", "1,99999999999999999999", "past 64 bits");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), std::invalid_argument);
  EXPECT_THROW(cli.get_uint("n"), std::invalid_argument);
  EXPECT_THROW(cli.get_int("huge"), std::invalid_argument);
  EXPECT_THROW(cli.get_uint("huge"), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("list"), std::invalid_argument);
  EXPECT_EQ(cli.get_int("negative"), -1);
  EXPECT_THROW(cli.get_uint("negative"), std::invalid_argument);
}

TEST(Cli, ValueRequiredForNonBoolean) {
  CliParser cli("test");
  cli.add_flag("n", "10", "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, DuplicateFlagRegistrationThrows) {
  CliParser cli("test");
  cli.add_flag("n", "10", "count");
  EXPECT_THROW(cli.add_flag("n", "20", "again"), std::invalid_argument);
}

// ---------------------------------------------------------------------- log

TEST(Log, LevelFiltering) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(original);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(log_level_name(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace fcr
