// Seeded mutation suite for the "dsem-model-v1" loader. Every mutant of
// the committed golden artifact (truncations, byte flips, splices and
// number perturbations) must either load or raise contract_error: never
// crash, hang, raise anything else, or hit undefined behaviour (the
// sanitizer jobs run this suite). A mutant that loads must answer the
// golden's 45-input query grid within a wall-clock bound: a loaded model
// is one a server would put in front of requests.
//
// Mutants go through ModelArtifact::load_file, the path `--model-in` and
// a serve reload take, from one scratch file per test.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelArtifact;

/// Wall-clock bound on answering the whole grid, sanitizer builds
/// included; the golden itself answers it in well under a millisecond.
constexpr std::chrono::seconds kAnswerBound{2};

const std::string& golden_text() {
  static const std::string text = [] {
    std::ifstream in(std::string(DSEM_TEST_DATA_DIR) +
                         "/golden_model_synthetic_v1.json",
                     std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();
  return text;
}

/// The golden grid (tests/serve/golden_model_test.cpp): inputs inside, on
/// the edge of and outside the training box, over clocks between and
/// beyond the training ones.
void answer_grid(const ModelArtifact& artifact) {
  const std::vector<double> freqs = {400,  600,  700,  800,  1000,
                                     1100, 1200, 1400, 1500, 2000};
  for (const double a : {4.0, 8.0, 60.0, 160.0, 400.0}) {
    for (const double b : {2.0, 11.0, 24.0}) {
      for (const double c : {16.0, 2500.0, 10000.0}) {
        const std::vector<double> features = {a, b, c};
        artifact.predict(features, freqs);
      }
    }
  }
}

/// Loads mutants from one scratch file and tallies what became of them.
class MutantLoader {
public:
  explicit MutantLoader(const std::string& name)
      : path_(testing::TempDir() + "dsem_mutant_" + name + ".json") {}
  ~MutantLoader() { std::filesystem::remove(path_); }

  void load(const std::string& text, const std::string& label) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << text;
    try {
      const ModelArtifact artifact = ModelArtifact::load_file(path_);
      ++loaded_;
      const auto start = std::chrono::steady_clock::now();
      try {
        answer_grid(artifact);
      } catch (const contract_error&) {
        ++refused_;
      }
      EXPECT_LT(std::chrono::steady_clock::now() - start, kAnswerBound)
          << label;
    } catch (const contract_error&) {
      ++rejected_;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << e.what();
    }
  }

  int loaded() const { return loaded_; }
  int rejected() const { return rejected_; }
  /// Loaded mutants whose grid raised contract_error instead of answering.
  int refused() const { return refused_; }

private:
  std::string path_;
  int loaded_ = 0;
  int rejected_ = 0;
  int refused_ = 0;
};

TEST(ArtifactMutation, TruncationsLoadOrRaise) {
  const std::string& golden = golden_text();
  ASSERT_FALSE(golden.empty());
  MutantLoader loader("truncation");
  for (std::size_t cut = 0; cut < golden.size(); cut += 97) {
    loader.load(golden.substr(0, cut), "cut " + std::to_string(cut));
  }
  // Only the trailing newline may go: every shorter prefix is cut inside
  // the document.
  loader.load(golden.substr(0, golden.size() - 1), "no trailing newline");
  EXPECT_EQ(loader.loaded(), 1);
  EXPECT_EQ(loader.refused(), 0);
}

TEST(ArtifactMutation, ByteFlipsLoadOrRaise) {
  const std::string& golden = golden_text();
  ASSERT_FALSE(golden.empty());
  MutantLoader loader("flip");
  std::mt19937_64 rng(0xF11B'5EEDULL);
  std::uniform_int_distribution<std::size_t> at(0, golden.size() - 1);
  std::uniform_int_distribution<int> mask(1, 255);
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = golden;
    const std::size_t pos = at(rng);
    const int bits = mask(rng);
    mutant[pos] = static_cast<char>(mutant[pos] ^ bits);
    loader.load(mutant, "flip " + std::to_string(bits) + " at " +
                            std::to_string(pos));
  }
  // Flips inside digits load as another model; most others break the
  // syntax or a check.
  EXPECT_GT(loader.loaded(), 0);
  EXPECT_GT(loader.rejected(), 1000);
}

TEST(ArtifactMutation, SplicesLoadOrRaise) {
  const std::string& golden = golden_text();
  ASSERT_FALSE(golden.empty());
  MutantLoader loader("splice");
  std::mt19937_64 rng(0x5711'CE00ULL);
  std::uniform_int_distribution<std::size_t> at(0, golden.size());
  for (int i = 0; i < 600; ++i) {
    // The text before one cut point joined to the text after another:
    // a span dropped when a < b, repeated when a > b.
    const std::size_t a = at(rng);
    const std::size_t b = at(rng);
    loader.load(golden.substr(0, a) + golden.substr(b),
                "splice " + std::to_string(a) + " " + std::to_string(b));
  }
  EXPECT_GT(loader.rejected(), 0);
}

/// [begin, end) of every number token in `text`, strings skipped.
std::vector<std::pair<std::size_t, std::size_t>>
number_tokens(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  const auto number_byte = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        i += text[i] == '\\' ? 1 : 0;
      }
    } else if (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')) {
      std::size_t end = i;
      while (end < text.size() && number_byte(text[end])) {
        ++end;
      }
      tokens.emplace_back(i, end);
      i = end - 1;
    }
  }
  return tokens;
}

std::string format_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(ArtifactMutation, NumberPerturbationsLoadOrRaise) {
  const std::string& golden = golden_text();
  ASSERT_FALSE(golden.empty());
  const auto tokens = number_tokens(golden);
  ASSERT_GT(tokens.size(), 1000u);
  // Every header and hyperparameter number (the first ones in the file),
  // then a seeded sample of the tree cells.
  std::vector<std::size_t> picked;
  for (std::size_t t = 0; t < 40; ++t) {
    picked.push_back(t);
  }
  std::mt19937_64 rng(0x9E27'0B00ULL);
  std::uniform_int_distribution<std::size_t> any(40, tokens.size() - 1);
  for (int i = 0; i < 400; ++i) {
    picked.push_back(any(rng));
  }
  MutantLoader loader("number");
  for (const std::size_t t : picked) {
    const auto [begin, end] = tokens[t];
    const std::string token = golden.substr(begin, end - begin);
    const double v = std::strtod(token.c_str(), nullptr);
    for (const std::string& replacement :
         {format_17g(std::nextafter(v, INFINITY)),
          format_17g(std::nextafter(v, -INFINITY)), format_17g(v * 10.0),
          format_17g(-v), std::string("3e9"), std::string("1e999"),
          std::string("2.5")}) {
      loader.load(golden.substr(0, begin) + replacement + golden.substr(end),
                  "token " + std::to_string(t) + " (" + token + ") -> " +
                      replacement);
    }
  }
  EXPECT_GT(loader.loaded(), 0);
  EXPECT_GT(loader.rejected(), 0);
}

} // namespace
