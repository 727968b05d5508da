#include "io/catalog.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace scalein {
namespace {

/// Strips comments ('#' to end of line) and splits into non-empty lines.
std::vector<std::string> CleanLines(std::string_view text) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      size_t hash = line.find('#');
      if (hash != std::string_view::npos) line = line.substr(0, hash);
      line = StripWhitespace(line);
      if (!line.empty()) out.emplace_back(line);
      start = i + 1;
    }
  }
  return out;
}

/// Parses "name(a, b, c)" into name + attribute list.
Result<std::pair<std::string, std::vector<std::string>>> ParseNameWithAttrs(
    std::string_view text) {
  size_t open = text.find('(');
  size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return Status::InvalidArgument("expected name(attrs...): '" +
                                   std::string(text) + "'");
  }
  std::string name(StripWhitespace(text.substr(0, open)));
  if (name.empty()) {
    return Status::InvalidArgument("missing relation name in '" +
                                   std::string(text) + "'");
  }
  std::vector<std::string> attrs;
  std::string_view inner = text.substr(open + 1, close - open - 1);
  if (!StripWhitespace(inner).empty()) {
    attrs = Split(inner, ',');
    for (const std::string& a : attrs) {
      if (a.empty()) {
        return Status::InvalidArgument("empty attribute in '" +
                                       std::string(text) + "'");
      }
    }
  }
  return std::make_pair(std::move(name), std::move(attrs));
}

/// Parses trailing "N=..." / "T=..." options.
Status ParseBoundOptions(const std::vector<std::string>& tokens, size_t start,
                         uint64_t* n, double* t) {
  for (size_t i = start; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (StartsWith(tok, "N=")) {
      SI_ASSIGN_OR_RETURN(*n, ParseInteger<uint64_t>(tok.substr(2)));
    } else if (StartsWith(tok, "T=")) {
      SI_ASSIGN_OR_RETURN(*t, ParseDouble(tok.substr(2)));
    } else {
      return Status::InvalidArgument("unknown option '" + tok + "'");
    }
  }
  return Status::OK();
}

std::vector<std::string> SplitTokens(std::string_view line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!current.empty()) {
        out.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

}  // namespace

Result<Schema> ParseSchemaText(std::string_view text) {
  Schema schema;
  for (const std::string& line : CleanLines(text)) {
    if (!StartsWith(line, "relation ")) {
      return Status::InvalidArgument("expected 'relation ...': '" + line + "'");
    }
    SI_ASSIGN_OR_RETURN(auto parsed,
                        ParseNameWithAttrs(std::string_view(line).substr(9)));
    if (parsed.second.empty()) {
      return Status::InvalidArgument("relation '" + parsed.first +
                                     "' needs at least one attribute");
    }
    SI_RETURN_IF_ERROR(
        schema.AddRelation(RelationSchema(parsed.first, parsed.second)));
  }
  return schema;
}

Result<AccessSchema> ParseAccessSchemaText(std::string_view text,
                                           const Schema& schema) {
  AccessSchema access;
  for (const std::string& line : CleanLines(text)) {
    if (StartsWith(line, "key ")) {
      SI_ASSIGN_OR_RETURN(auto parsed,
                          ParseNameWithAttrs(std::string_view(line).substr(4)));
      access.AddKey(parsed.first, parsed.second);
      continue;
    }
    if (StartsWith(line, "fd ")) {
      // fd R: x1, x2 -> y1, y2
      std::string_view rest = std::string_view(line).substr(3);
      size_t colon = rest.find(':');
      size_t arrow = rest.find("->");
      if (colon == std::string_view::npos || arrow == std::string_view::npos ||
          arrow < colon) {
        return Status::InvalidArgument("expected 'fd R: X -> Y': '" + line +
                                       "'");
      }
      std::string relation(StripWhitespace(rest.substr(0, colon)));
      std::vector<std::string> determinant =
          Split(rest.substr(colon + 1, arrow - colon - 1), ',');
      std::vector<std::string> dependent = Split(rest.substr(arrow + 2), ',');
      access.AddFd(relation, determinant, dependent);
      continue;
    }
    if (StartsWith(line, "access ")) {
      std::string_view rest = std::string_view(line).substr(7);
      std::vector<std::string> tokens = SplitTokens(rest);
      if (tokens.empty()) {
        return Status::InvalidArgument("empty access statement");
      }
      // Re-join the leading name(...) chunk: attrs may contain spaces after
      // commas; find the closing paren in `rest` directly.
      size_t close = rest.find(')');
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("expected '(...)' in '" + line + "'");
      }
      std::string_view head = rest.substr(0, close + 1);
      std::vector<std::string> options =
          SplitTokens(rest.substr(close + 1));
      uint64_t n = 1;
      double t = 1.0;
      SI_RETURN_IF_ERROR(ParseBoundOptions(options, 0, &n, &t));

      SI_ASSIGN_OR_RETURN(auto parsed, ParseNameWithAttrs(head));
      // Embedded form: attribute list contains "->".
      std::vector<std::string> key_attrs;
      std::vector<std::string> value_attrs;
      bool embedded = false;
      for (size_t i = 0; i < parsed.second.size(); ++i) {
        std::string attr = parsed.second[i];
        size_t arrow = attr.find("->");
        if (arrow != std::string::npos) {
          embedded = true;
          std::string left(StripWhitespace(std::string_view(attr).substr(0, arrow)));
          std::string right(
              StripWhitespace(std::string_view(attr).substr(arrow + 2)));
          if (!left.empty()) key_attrs.push_back(left);
          if (!right.empty()) value_attrs.push_back(right);
        } else if (embedded) {
          value_attrs.push_back(attr);
        } else {
          key_attrs.push_back(attr);
        }
      }
      if (embedded) {
        access.AddEmbedded(parsed.first, key_attrs, value_attrs, n, t);
      } else {
        access.Add(parsed.first, key_attrs, n, t);
      }
      continue;
    }
    return Status::InvalidArgument("expected 'access'/'key'/'fd': '" + line +
                                   "'");
  }
  SI_RETURN_IF_ERROR(access.Validate(schema));
  return access;
}

Result<Value> ParseCsvValue(std::string_view field) {
  field = StripWhitespace(field);
  if (field.size() >= 2 && field.front() == '"' && field.back() == '"') {
    return Value::Str(field.substr(1, field.size() - 2));
  }
  if (!field.empty()) {
    size_t start = field[0] == '-' ? 1 : 0;
    bool numeric = start < field.size();
    for (size_t i = start; i < field.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(field[i]))) {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      SI_ASSIGN_OR_RETURN(int64_t v, ParseInteger<int64_t>(field));
      return Value::Int(v);
    }
  }
  return Value::Str(field);
}

Status LoadRelationCsv(Database* db, const std::string& relation,
                       std::string_view csv) {
  const Relation* rel = db->FindRelation(relation);
  if (rel == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  const size_t arity = rel->arity();
  size_t line_number = 0;
  for (const std::string& line : CleanLines(csv)) {
    ++line_number;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != arity) {
      return Status::InvalidArgument(StrFormat(
          "%s line %zu: expected %zu fields, got %zu", relation.c_str(),
          line_number, arity, fields.size()));
    }
    Tuple t;
    t.reserve(arity);
    for (const std::string& f : fields) {
      Result<Value> v = ParseCsvValue(f);
      if (!v.ok()) {
        return Status::InvalidArgument(StrFormat(
            "%s line %zu: %s", relation.c_str(), line_number,
            v.status().message().c_str()));
      }
      t.push_back(std::move(v).ValueOrDie());
    }
    db->Insert(relation, t);
  }
  return Status::OK();
}

std::string RelationToCsv(const Relation& relation) {
  std::string out;
  for (const Tuple& t : relation.SortedTuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ",";
      if (t[i].is_int()) {
        out += std::to_string(t[i].AsInt());
      } else {
        out += "\"" + t[i].AsString() + "\"";
      }
    }
    out += "\n";
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return out.good() ? Status::OK()
                    : Status::Internal("short write to '" + path + "'");
}

Result<Schema> LoadSchemaFile(const std::string& path) {
  SI_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseSchemaText(text);
}

Result<AccessSchema> LoadAccessSchemaFile(const std::string& path,
                                          const Schema& schema) {
  SI_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseAccessSchemaText(text, schema);
}

}  // namespace scalein
