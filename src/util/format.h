// Minimal std::format stand-in for GCC 12 (no <format> in libstdc++ 12),
// plus the one number writer every artifact renders through.
//
// append_g / append_u64 are the hot-path writers: the trace, audit,
// time-series, counters, Prometheus, lifecycle and CSV exporters emit
// every number through them.  append_g is std::to_chars in the general
// form with an explicit precision, which the standard defines as printf's
// "%.{precision}g" — so "%.17g" output (bit-exact under strtod) is kept
// byte for byte, without a format string, a locale or a snprintf call per
// number (tests/test_format.cpp checks this over random bit patterns).
//
// format() is cold-path code (logs, table rendering, names); clarity over
// speed.  It supports the subset this project uses:
//   * "{}"          — default rendering (%g for floating point, decimal for
//                     integers, "true"/"false" for bool, pass-through for
//                     strings)
//   * "{:SPEC}"     — SPEC is handed to snprintf as "%SPEC" for arithmetic
//                     arguments (e.g. "{:g}", "{:.3f}", "{:.9g}", "{:x}");
//                     for strings, ">N" / "<N" pads to width N.
//
// Errors (too few/many args, bad spec) throw std::invalid_argument so tests
// catch misuse immediately.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gc {

// Appends `value` exactly as printf("%.{precision}g") renders it, including
// "inf", "-inf", "nan" and "-nan".  `precision` is 1..17: enough for a
// strtod round trip at 17, and it bounds the rendered length.
inline void append_g(std::string& out, double value, int precision = 17) {
  char buf[32];  // "-1.2345678901234567e-308" is 24 characters
  const auto result =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, precision);
  out.append(buf, result.ptr);
}

// Appends `value` in decimal, as printf("%llu").
inline void append_u64(std::string& out, unsigned long long value) {
  char buf[20];  // UINT64_MAX has 20 digits
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

namespace detail {

[[nodiscard]] std::string printf_spec(std::string_view spec, std::string_view length_mod,
                                      char default_conv);

template <typename T>
[[nodiscard]] std::string render_arg(const T& value, std::string_view spec) {
  char buf[128];
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    const std::string f = printf_spec(spec, "", 'g');
    std::snprintf(buf, sizeof buf, f.c_str(), static_cast<double>(value));
    return buf;
  } else if constexpr (std::is_integral_v<T>) {
    if (!spec.empty() && (spec.back() == 'f' || spec.back() == 'g' || spec.back() == 'e')) {
      // Integer formatted with a float spec: promote.
      const std::string f = printf_spec(spec, "", 'g');
      std::snprintf(buf, sizeof buf, f.c_str(), static_cast<double>(value));
      return buf;
    }
    if constexpr (std::is_signed_v<T>) {
      const std::string f = printf_spec(spec, "ll", 'd');
      std::snprintf(buf, sizeof buf, f.c_str(), static_cast<long long>(value));
    } else {
      const std::string f = printf_spec(spec, "ll", 'u');
      std::snprintf(buf, sizeof buf, f.c_str(), static_cast<unsigned long long>(value));
    }
    return buf;
  } else {
    // String-like.
    std::string text;
    if constexpr (std::is_convertible_v<T, std::string_view>) {
      text = std::string(std::string_view(value));
    } else {
      static_assert(std::is_convertible_v<T, std::string>,
                    "gc::format: unsupported argument type");
      text = std::string(value);
    }
    if (spec.empty()) return text;
    if (spec.front() == '>' || spec.front() == '<') {
      const std::size_t width = static_cast<std::size_t>(
          std::strtoul(std::string(spec.substr(1)).c_str(), nullptr, 10));
      if (text.size() >= width) return text;
      const std::string pad(width - text.size(), ' ');
      return spec.front() == '>' ? pad + text : text + pad;
    }
    throw std::invalid_argument("gc::format: bad string spec '" + std::string(spec) + "'");
  }
}

[[nodiscard]] std::string format_impl(
    std::string_view fmt,
    const std::vector<std::function<std::string(std::string_view)>>& renderers);

}  // namespace detail

template <typename... Args>
[[nodiscard]] std::string format(std::string_view fmt, const Args&... args) {
  std::vector<std::function<std::string(std::string_view)>> renderers;
  renderers.reserve(sizeof...(Args));
  (renderers.emplace_back(
       [&args](std::string_view spec) { return detail::render_arg(args, spec); }),
   ...);
  return detail::format_impl(fmt, renderers);
}

}  // namespace gc
