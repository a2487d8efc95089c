// Small string helpers used by the CSV layer and table printer.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gc {

// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

// Splits on `sep`; keeps empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

// Locale-independent numeric parsing; nullopt on any trailing garbage.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;

// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

// Lower-cases ASCII.
[[nodiscard]] std::string to_lower(std::string_view s);

}  // namespace gc
