// SPDX-License-Identifier: Apache-2.0
#include "common/table.hpp"

#include <algorithm>
#include <sstream>

#include "common/strings.hpp"

namespace mp3d {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_string() const {
  // Column widths from header + all rows.
  std::vector<std::size_t> widths;
  auto absorb = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) {
      widths.resize(cells.size(), 0);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  absorb(header_);
  for (const std::vector<std::string>& r : rows_) {
    absorb(r);
  }

  std::size_t total = widths.empty() ? 0 : 3 * (widths.size() - 1);
  for (const std::size_t w : widths) {
    total += w;
  }

  std::ostringstream oss;
  if (!title_.empty()) {
    oss << title_ << "\n";
    oss << std::string(std::max(total, title_.size()), '=') << "\n";
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      oss << c << std::string(widths[i] - std::min(widths[i], c.size()), ' ');
      if (i + 1 < widths.size()) {
        oss << " | ";
      }
    }
    oss << "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    oss << std::string(total, '-') << "\n";
  }
  for (const std::vector<std::string>& r : rows_) {
    emit(r);
  }
  return oss.str();
}

std::string fmt_fixed(double v, int digits) { return strfmt("%.*f", digits, v); }

std::string fmt_pct(double v, int digits) {
  return strfmt("%+.*f %%", digits, v * 100.0);
}

std::string fmt_norm(double v, int digits) { return strfmt("%.*f", digits, v); }

std::string fmt_count(double v) {
  if (v >= 1e3) {
    return strfmt("%.1fe3", v / 1e3);
  }
  return strfmt("%.0f", v);
}

}  // namespace mp3d
