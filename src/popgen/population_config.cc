#include "src/popgen/population_config.h"

#include <cerrno>
#include <cstdlib>

#include "src/base/csv.h"
#include "src/popgen/app_catalog.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);  // 0x ok
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseF64(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
  return false;
}

}  // namespace

bool ParsePopulationConfig(const std::string& text, PopulationConfig* out,
                           std::string* error) {
  PopulationConfig cfg;
  cfg.mix.clear();
  for (const auto& row : CsvReader::Parse(text)) {
    const std::string& key = row[0];
    if (key == "mix") {
      if (row.size() != 3) {
        return Fail(error, "mix rows must be 'mix,<app>,<weight>'");
      }
      if (FindCatalogIndex(row[1]) < 0) {
        return Fail(error, "unknown app '" + row[1] +
                               "' in mix row (see AppCatalog for valid names)");
      }
      double weight = 0.0;
      if (!ParseF64(row[2], &weight) || weight <= 0.0) {
        return Fail(error, "mix weight for '" + row[1] +
                               "' must be a positive number, got '" + row[2] + "'");
      }
      cfg.mix.push_back({row[1], weight});
      continue;
    }
    if (row.size() != 2) {
      return Fail(error, "row for key '" + key + "' must be 'key,value'");
    }
    const std::string& val = row[1];
    double f = 0.0;
    uint64_t u = 0;
    if (key == "seed") {
      if (!ParseU64(val, &cfg.seed)) {
        return Fail(error, "seed must be an unsigned integer, got '" + val + "'");
      }
    } else if (key == "base_rate_hz") {
      if (!ParseF64(val, &cfg.base_rate_hz) || cfg.base_rate_hz <= 0.0) {
        return Fail(error, "base_rate_hz must be > 0, got '" + val + "'");
      }
    } else if (key == "diurnal_amplitude") {
      if (!ParseF64(val, &cfg.diurnal_amplitude) || cfg.diurnal_amplitude < 0.0 ||
          cfg.diurnal_amplitude >= 1.0) {
        return Fail(error, "diurnal_amplitude must be in [0, 1), got '" + val + "'");
      }
    } else if (key == "diurnal_period_ms") {
      if (!ParseF64(val, &f) || f <= 0.0) {
        return Fail(error, "diurnal_period_ms must be > 0, got '" + val + "'");
      }
      cfg.diurnal_period = static_cast<DurationNs>(f * kMillisecond);
    } else if (key == "flash_start_ms") {
      if (!ParseF64(val, &f) || f < 0.0) {
        return Fail(error, "flash_start_ms must be >= 0, got '" + val + "'");
      }
      cfg.flash_start = static_cast<TimeNs>(f * kMillisecond);
    } else if (key == "flash_duration_ms") {
      if (!ParseF64(val, &f) || f < 0.0) {
        return Fail(error, "flash_duration_ms must be >= 0, got '" + val + "'");
      }
      cfg.flash_duration = static_cast<DurationNs>(f * kMillisecond);
    } else if (key == "flash_multiplier") {
      if (!ParseF64(val, &cfg.flash_multiplier) || cfg.flash_multiplier <= 0.0) {
        return Fail(error, "flash_multiplier must be > 0, got '" + val + "'");
      }
    } else if (key == "adversarial_fraction") {
      if (!ParseF64(val, &cfg.adversarial_fraction) ||
          cfg.adversarial_fraction < 0.0 || cfg.adversarial_fraction > 1.0) {
        return Fail(error,
                    "adversarial_fraction must be in [0, 1], got '" + val + "'");
      }
    } else if (key == "adversarial_period_ms") {
      if (!ParseF64(val, &f) || f < 0.0) {
        return Fail(error, "adversarial_period_ms must be >= 0, got '" + val + "'");
      }
      cfg.adversarial_period = static_cast<DurationNs>(f * kMillisecond);
    } else if (key == "adversarial_duty") {
      if (!ParseF64(val, &cfg.adversarial_duty) || cfg.adversarial_duty < 0.0 ||
          cfg.adversarial_duty > 1.0) {
        return Fail(error, "adversarial_duty must be in [0, 1], got '" + val + "'");
      }
    } else if (key == "pareto_alpha") {
      if (!ParseF64(val, &cfg.pareto_alpha) || cfg.pareto_alpha <= 0.0) {
        return Fail(error, "pareto_alpha must be > 0, got '" + val + "'");
      }
    } else if (key == "min_iterations") {
      if (!ParseU64(val, &cfg.min_iterations) || cfg.min_iterations == 0) {
        return Fail(error, "min_iterations must be >= 1, got '" + val + "'");
      }
    } else if (key == "max_iterations") {
      if (!ParseU64(val, &cfg.max_iterations) || cfg.max_iterations == 0) {
        return Fail(error, "max_iterations must be >= 1, got '" + val + "'");
      }
    } else if (key == "tenants_per_board") {
      if (!ParseU64(val, &u) || u > 64) {
        return Fail(error,
                    "tenants_per_board must be an integer in [0, 64], got '" +
                        val + "'");
      }
      cfg.tenants_per_board = static_cast<int>(u);
    } else if (key == "tenant_budget_j") {
      if (!ParseF64(val, &cfg.tenant_budget) || cfg.tenant_budget < 0.0) {
        return Fail(error, "tenant_budget_j must be >= 0, got '" + val + "'");
      }
    } else if (key == "child_budget_j") {
      if (!ParseF64(val, &cfg.child_budget) || cfg.child_budget < 0.0) {
        return Fail(error, "child_budget_j must be >= 0, got '" + val + "'");
      }
    } else {
      return Fail(error, "unknown population config key '" + key + "'");
    }
  }
  if (!cfg.enabled()) {
    return Fail(error, "population config must set base_rate_hz > 0");
  }
  if (cfg.min_iterations > cfg.max_iterations) {
    return Fail(error, "min_iterations must be <= max_iterations");
  }
  *out = cfg;
  return true;
}

bool LoadPopulationConfig(const std::string& path, PopulationConfig* out,
                          std::string* error) {
  std::vector<std::vector<std::string>> rows;
  if (!CsvReader::ReadFile(path, &rows, error)) {
    return false;
  }
  // Re-parse from text for one shared code path: rebuild the CSV text.
  std::string text;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        text += ',';
      }
      text += row[i];
    }
    text += '\n';
  }
  return ParsePopulationConfig(text, out, error);
}

template <class Ar>
void PopulationConfig::Serialize(Ar& ar) {
  ar.U64(seed);
  ar.F64(base_rate_hz);
  ar.F64(diurnal_amplitude);
  ar.I64(diurnal_period);
  ar.I64(flash_start);
  ar.I64(flash_duration);
  ar.F64(flash_multiplier);
  ar.F64(adversarial_fraction);
  ar.I64(adversarial_period);
  ar.F64(adversarial_duty);
  ar.F64(pareto_alpha);
  ar.U64(min_iterations);
  ar.U64(max_iterations);
  ar.U64(tenants_per_board);
  ar.F64(tenant_budget);
  ar.F64(child_budget);
  ar.Seq(mix, 9, [&](PopulationMixEntry& m) {
    ar.Str(m.app);
    ar.F64(m.weight);
  });
}

template void PopulationConfig::Serialize(SnapshotWriter&);
template void PopulationConfig::Serialize(SnapshotReader&);

bool PopulationConfig::operator==(const PopulationConfig& other) const {
  if (seed != other.seed || base_rate_hz != other.base_rate_hz ||
      diurnal_amplitude != other.diurnal_amplitude ||
      diurnal_period != other.diurnal_period ||
      flash_start != other.flash_start ||
      flash_duration != other.flash_duration ||
      flash_multiplier != other.flash_multiplier ||
      adversarial_fraction != other.adversarial_fraction ||
      adversarial_period != other.adversarial_period ||
      adversarial_duty != other.adversarial_duty ||
      pareto_alpha != other.pareto_alpha ||
      min_iterations != other.min_iterations ||
      max_iterations != other.max_iterations ||
      tenants_per_board != other.tenants_per_board ||
      tenant_budget != other.tenant_budget ||
      child_budget != other.child_budget || mix.size() != other.mix.size()) {
    return false;
  }
  for (size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].app != other.mix[i].app || mix[i].weight != other.mix[i].weight) {
      return false;
    }
  }
  return true;
}

}  // namespace psbox
