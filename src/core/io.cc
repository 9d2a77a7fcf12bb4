#include "core/io.h"

#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/parse.h"

namespace tsaug::core {
namespace {

void WriteValue(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else {
    out << v;
  }
}

}  // namespace

void WriteSeriesCsv(const TimeSeries& series, std::ostream& out) {
  out << "t";
  for (int c = 0; c < series.num_channels(); ++c) out << ",ch" << c;
  out << "\n";
  for (int t = 0; t < series.length(); ++t) {
    out << t;
    for (int c = 0; c < series.num_channels(); ++c) {
      out << ",";
      WriteValue(out, series.at(c, t));
    }
    out << "\n";
  }
}

bool WriteSeriesCsv(const TimeSeries& series, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteSeriesCsv(series, out);
  return static_cast<bool>(out);
}

void WriteDatasetCsv(const Dataset& dataset, std::ostream& out) {
  out << "instance,label,channel,t,value\n";
  for (int i = 0; i < dataset.size(); ++i) {
    const TimeSeries& s = dataset.series(i);
    for (int c = 0; c < s.num_channels(); ++c) {
      for (int t = 0; t < s.length(); ++t) {
        out << i << "," << dataset.label(i) << "," << c << "," << t << ",";
        WriteValue(out, s.at(c, t));
        out << "\n";
      }
    }
  }
}

bool WriteDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteDatasetCsv(dataset, out);
  return static_cast<bool>(out);
}

bool ReadDatasetCsv(std::istream& in, Dataset* dataset) {
  *dataset = Dataset();
  std::string line;
  if (!std::getline(in, line)) return false;  // header

  struct Row {
    int instance, label, channel, t;
    double value;
  };
  std::vector<Row> parsed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string field;
    int values[4] = {0, 0, 0, 0};
    for (int k = 0; k < 4; ++k) {
      if (!std::getline(fields, field, ',')) return false;
      const std::optional<int> value = ParseInt<int>(field, 0);
      if (!value) return false;
      values[k] = *value;
    }
    if (!std::getline(fields, field, ',')) return false;
    const std::optional<double> sample = ParseDouble(field);
    if (!sample) return false;
    parsed.push_back({values[0], values[1], values[2], values[3], *sample});
  }
  // WriteDatasetCsv writes one row per sample, NaN included, so no channel
  // is longer than the file has data rows. A larger t is malformed, and
  // is rejected before it can size an allocation.
  for (const Row& row : parsed) {
    if (static_cast<size_t>(row.t) >= parsed.size()) return false;
  }

  // instance -> (label, channel -> samples)
  std::map<int, std::pair<int, std::map<int, std::vector<double>>>> rows;
  for (const Row& row : parsed) {
    auto& [label, channels] = rows[row.instance];
    label = row.label;
    std::vector<double>& samples = channels[row.channel];
    if (static_cast<int>(samples.size()) <= row.t) {
      samples.resize(static_cast<size_t>(row.t) + 1, std::nan(""));
    }
    samples[static_cast<size_t>(row.t)] = row.value;
  }
  for (auto& [instance, entry] : rows) {
    (void)instance;
    std::vector<std::vector<double>> channels;
    channels.reserve(entry.second.size());
    for (auto& [channel, samples] : entry.second) {
      (void)channel;
      channels.push_back(std::move(samples));
    }
    dataset->Add(TimeSeries::FromChannels(channels), entry.first);
  }
  return true;
}

bool ReadDatasetCsv(const std::string& path, Dataset* dataset) {
  std::ifstream in(path);
  if (!in) return false;
  return ReadDatasetCsv(in, dataset);
}

}  // namespace tsaug::core
