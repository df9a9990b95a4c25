#include "source_model.hpp"

#include <algorithm>
#include <cctype>

namespace dshuf::analyze {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_word(const std::string& s, const std::string& word,
                      std::size_t pos) {
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

bool contains_word(const std::string& s, const std::string& word) {
  return find_word(s, word) != std::string::npos;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string annotation_justification(const std::string& raw_line,
                                     const std::string& marker) {
  const std::size_t pos = raw_line.find(marker);
  if (pos == std::string::npos) return {};
  std::string rest = raw_line.substr(pos + marker.size());
  std::size_t b = 0;
  while (b < rest.size() &&
         (rest[b] == ':' || rest[b] == '-' || rest[b] == ' ' ||
          rest[b] == '\t')) {
    ++b;
  }
  return trim(rest.substr(b));
}

bool annotated(const std::vector<std::string>& raw_lines, std::size_t idx,
               const std::string& marker) {
  if (idx < raw_lines.size() &&
      raw_lines[idx].find(marker) != std::string::npos) {
    return true;
  }
  return idx > 0 && raw_lines[idx - 1].find(marker) != std::string::npos;
}

std::size_t annotation_line(const std::vector<std::string>& raw_lines,
                            std::size_t idx, const std::string& marker) {
  if (idx < raw_lines.size() &&
      raw_lines[idx].find(marker) != std::string::npos) {
    return idx;
  }
  if (idx > 0 && raw_lines[idx - 1].find(marker) != std::string::npos) {
    return idx - 1;
  }
  return std::string::npos;
}

FileClass classify_path(const std::string& path) {
  FileClass info;
  info.path = path;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  const auto has = [&](const char* needle) {
    return p.find(needle) != std::string::npos;
  };
  info.is_header = p.size() >= 4 && (p.rfind(".hpp") == p.size() - 4 ||
                                     p.rfind(".h") == p.size() - 2);
  info.determinism_critical =
      has("src/shuffle/") || has("src/comm/") || has("src/sim/");
  info.rng_module = has("util/rng.hpp") || has("util/rng.cpp");
  info.src_tree = has("src/");
  info.log_module = has("util/log.cpp");
  info.io_module = has("src/io/");
  return info;
}

std::string scrub(const std::string& content) {
  std::string out = content;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char n = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = ' ';
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || !is_ident_char(content[i - 1]))) {
          // Raw string: capture the delimiter up to '('.
          std::size_t j = i + 2;
          while (j < content.size() && content[j] != '(') ++j;
          raw_delim.assign(1, ')');
          raw_delim.append(content, i + 2, j - i - 2);
          raw_delim.push_back('"');
          st = St::kRaw;
          // Keep R"...( visible length but blank it.
          for (std::size_t k = i; k <= j && k < content.size(); ++k) {
            if (content[k] != '\n') out[k] = ' ';
          }
          i = j;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) {
            if (out[i + k] != '\n') out[i + k] = ' ';
          }
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Token> tokenize(const std::string& s) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(s[j])) ++j;
      toks.push_back({Token::Kind::kIdent, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (is_ident_char(s[j]) || s[j] == '.')) ++j;
      toks.push_back({Token::Kind::kNumber, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == '"') {
      // Scrubbed string: contents are spaces, the quotes survive. Scan to
      // the closing quote on the same logical literal.
      std::size_t j = i + 1;
      while (j < n && s[j] != '"') {
        if (s[j] == '\n') ++line;
        ++j;
      }
      toks.push_back({Token::Kind::kString, "", line});
      i = j < n ? j + 1 : n;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && s[j] != '\'') {
        if (s[j] == '\n') ++line;
        ++j;
      }
      toks.push_back({Token::Kind::kChar, "", line});
      i = j < n ? j + 1 : n;
      continue;
    }
    // Punctuation. Only `::` and `->` are fused; everything else is a
    // single character so `>>` closes two template levels naturally.
    if (c == ':' && i + 1 < n && s[i + 1] == ':') {
      toks.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && s[i + 1] == '>') {
      toks.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return toks;
}

SourceFile make_source_file(const std::string& path,
                            const std::string& content) {
  SourceFile f;
  f.cls = classify_path(path);
  f.raw = content;
  f.scrubbed = scrub(content);
  f.raw_lines = split_lines(content);
  f.lines = split_lines(f.scrubbed);
  f.toks = tokenize(f.scrubbed);
  return f;
}

}  // namespace dshuf::analyze
