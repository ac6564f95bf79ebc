// Line scanner behind the text formats of graph/graph_io.hpp and
// cluster/cluster_io.hpp: one forward walk over an in-memory buffer, with
// no per-line copy and no string stream.
//
// It accepts exactly the language std::getline plus a per-line
// std::istringstream (classic "C" locale) accepts:
//  * lines end at '\n'; a line is skipped when its first character outside
//    " \t\r" is '#', or when it has none;
//  * every field read first skips the isspace characters " \t\v\f\r";
//  * a word runs to the next of those characters;
//  * an integer is an optional '+' or '-' and at least one decimal digit,
//    and must fit its type. It ends at the first non-digit, so the next
//    field may start right there: "edge 0 1+5" reads 0, 1 and 5;
//  * whatever follows the last field a caller reads is ignored.
#pragma once

#include <charconv>
#include <cstddef>
#include <istream>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>

namespace mimdmap::detail {

class TextScanner {
 public:
  explicit TextScanner(std::string_view text) noexcept : text_(text) {}

  /// Moves to the next significant line; false at the end of the input.
  bool next_line() noexcept {
    while (pos_ < text_.size()) {
      const std::size_t nl = text_.find('\n', pos_);
      const std::size_t end = nl == std::string_view::npos ? text_.size() : nl;
      const char* first = text_.data() + pos_;
      const char* last = text_.data() + end;
      pos_ = end + 1;
      ++line_no_;
      while (first != last && (*first == ' ' || *first == '\t' || *first == '\r')) ++first;
      if (first == last || *first == '#') continue;
      cur_ = first;
      end_ = last;
      return true;
    }
    return false;
  }

  /// 1-based number of the current line; at the end of the input, the
  /// number of lines the input holds.
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

  /// Reads the next word of the current line; false when none is left.
  bool word(std::string_view& out) noexcept {
    skip_space();
    const char* first = cur_;
    while (cur_ != end_ && !is_space(*cur_)) ++cur_;
    out = std::string_view(first, static_cast<std::size_t>(cur_ - first));
    return cur_ != first;
  }

  /// Reads the next integer of the current line; false when there is none
  /// or it overflows `Int`.
  template <class Int>
  bool integer(Int& out) noexcept {
    skip_space();
    const char* first = cur_;
    if (first != end_ && *first == '+') {
      ++first;  // from_chars takes no '+'; "+-1" must still fail
      if (first == end_ || *first < '0' || *first > '9') return false;
    }
    const auto [last, ec] = std::from_chars(first, end_, out);
    if (ec != std::errc{}) return false;
    cur_ = last;
    return true;
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
  }

  void skip_space() noexcept {
    while (cur_ != end_ && is_space(*cur_)) ++cur_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;      // start of the next unread line
  std::size_t line_no_ = 0;
  const char* cur_ = nullptr;  // read position within the current line
  const char* end_ = nullptr;
};

/// The rest of `is`, for the read_*(std::istream&) entry points.
inline std::string read_all(std::istream& is) {
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

}  // namespace mimdmap::detail
