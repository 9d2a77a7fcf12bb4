#include "data/ts_format.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/parse.h"

namespace tsaug::data {
namespace {

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool ReadTsFile(std::istream& in, core::Dataset* dataset, std::string* error) {
  *dataset = core::Dataset();
  std::map<std::string, int> label_ids;
  bool in_data = false;
  std::string line;
  int line_number = 0;

  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    if (trimmed[0] == '@') {
      const std::string lower = ToLower(trimmed);
      if (lower.rfind("@data", 0) == 0) {
        in_data = true;
      } else if (lower.rfind("@classlabel", 0) == 0) {
        // "@classLabel true a b c" declares the vocabulary.
        std::istringstream header(trimmed);
        std::string directive;
        std::string flag;
        header >> directive >> flag;
        if (ToLower(flag) == "true") {
          std::string label;
          while (header >> label) {
            label_ids.emplace(label, static_cast<int>(label_ids.size()));
          }
        }
      }
      continue;  // other directives carry no structure we need
    }

    if (!in_data) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": data before @data directive");
    }

    // Case line: dim1:dim2:...:label
    std::vector<std::string> fields;
    std::stringstream splitter(trimmed);
    std::string field;
    while (std::getline(splitter, field, ':')) fields.push_back(field);
    if (fields.size() < 2) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": expected <dims...>:<label>");
    }

    const std::string label_text = Trim(fields.back());
    fields.pop_back();
    auto [label_it, inserted] =
        label_ids.emplace(label_text, static_cast<int>(label_ids.size()));

    std::vector<std::vector<double>> channels;
    size_t length = 0;
    for (const std::string& dim : fields) {
      std::vector<double> samples;
      std::stringstream values(dim);
      std::string token;
      while (std::getline(values, token, ',')) {
        // "?" (or nothing) marks a missing value.
        const std::string value = Trim(token);
        const std::optional<double> v = value.empty() || value == "?"
                                            ? std::nan("")
                                            : core::ParseDouble(value);
        if (!v) {
          return Fail(error, "line " + std::to_string(line_number) +
                                 ": bad value '" + token + "'");
        }
        samples.push_back(*v);
      }
      length = std::max(length, samples.size());
      channels.push_back(std::move(samples));
    }
    if (length == 0) {
      return Fail(error,
                  "line " + std::to_string(line_number) + ": empty case");
    }
    // Dimensions of one case may differ in length in the archive; pad the
    // short ones with NaN so the case is rectangular.
    for (std::vector<double>& samples : channels) {
      samples.resize(length, std::nan(""));
    }
    dataset->Add(core::TimeSeries::FromChannels(channels),
                 label_it->second);
  }
  if (dataset->empty()) return Fail(error, "no data cases found");
  return true;
}

bool ReadTsFile(const std::string& path, core::Dataset* dataset,
                std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
  return ReadTsFile(in, dataset, error);
}

void WriteTsFile(const core::Dataset& dataset, const std::string& problem_name,
                 std::ostream& out) {
  out << "@problemName " << problem_name << "\n";
  out << "@timeStamps false\n";
  out << "@classLabel true";
  for (int k = 0; k < dataset.num_classes(); ++k) out << " " << k;
  out << "\n@data\n";
  for (int i = 0; i < dataset.size(); ++i) {
    const core::TimeSeries& s = dataset.series(i);
    for (int c = 0; c < s.num_channels(); ++c) {
      for (int t = 0; t < s.length(); ++t) {
        if (t > 0) out << ",";
        const double v = s.at(c, t);
        if (std::isnan(v)) {
          out << "?";
        } else {
          out << v;
        }
      }
      out << ":";
    }
    out << dataset.label(i) << "\n";
  }
}

bool LoadUeaProblem(const std::string& directory, const std::string& name,
                    core::Dataset* train, core::Dataset* test,
                    std::string* error) {
  if (!ReadTsFile(directory + "/" + name + "_TRAIN.ts", train, error)) {
    return false;
  }
  if (!ReadTsFile(directory + "/" + name + "_TEST.ts", test, error)) {
    return false;
  }
  return true;
}

}  // namespace tsaug::data
