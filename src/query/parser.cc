#include "query/parser.h"

#include <cctype>
#include <map>
#include <optional>

#include "util/strings.h"

namespace scalein {
namespace {

enum class TokKind {
  kIdent,
  kInt,
  kString,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEq,
  kNeq,
  kRuleArrow,  // :-
  kDefArrow,   // :=
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;  // ident payload / string payload
  int64_t int_value = 0;
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    const size_t n = input_.size();
    while (i < n) {
      char c = input_[i];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++i;
        continue;
      }
      size_t start = i;
      if (c == '(') {
        out.push_back({TokKind::kLParen, "", 0, start});
        ++i;
      } else if (c == ')') {
        out.push_back({TokKind::kRParen, "", 0, start});
        ++i;
      } else if (c == ',') {
        out.push_back({TokKind::kComma, "", 0, start});
        ++i;
      } else if (c == '.') {
        out.push_back({TokKind::kDot, "", 0, start});
        ++i;
      } else if (c == '=') {
        out.push_back({TokKind::kEq, "", 0, start});
        ++i;
      } else if (c == '!' && i + 1 < n && input_[i + 1] == '=') {
        out.push_back({TokKind::kNeq, "", 0, start});
        i += 2;
      } else if (c == ':' && i + 1 < n && input_[i + 1] == '-') {
        out.push_back({TokKind::kRuleArrow, "", 0, start});
        i += 2;
      } else if (c == ':' && i + 1 < n && input_[i + 1] == '=') {
        out.push_back({TokKind::kDefArrow, "", 0, start});
        i += 2;
      } else if (c == '"') {
        ++i;
        std::string s;
        while (i < n && input_[i] != '"') {
          s.push_back(input_[i]);
          ++i;
        }
        if (i >= n) {
          return Status::InvalidArgument(
              StrFormat("unterminated string literal at offset %zu", start));
        }
        ++i;  // closing quote
        out.push_back({TokKind::kString, std::move(s), 0, start});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && i + 1 < n &&
                  std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        size_t j = i + (c == '-' ? 1 : 0);
        while (j < n && std::isdigit(static_cast<unsigned char>(input_[j]))) ++j;
        Result<int64_t> v = ParseInteger<int64_t>(input_.substr(i, j - i));
        if (!v.ok()) {
          return Status::InvalidArgument(
              StrFormat("integer literal at offset %zu: %s", start,
                        v.status().message().c_str()));
        }
        out.push_back({TokKind::kInt, "", *v, start});
        i = j;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < n && (std::isalnum(static_cast<unsigned char>(input_[j])) ||
                         input_[j] == '_' || input_[j] == '$')) {
          ++j;
        }
        out.push_back(
            {TokKind::kIdent, std::string(input_.substr(i, j - i)), 0, start});
        i = j;
      } else {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
      }
    }
    out.push_back({TokKind::kEnd, "", 0, n});
    return out;
  }

 private:
  std::string_view input_;
};

bool IsKeyword(const Token& t, const char* kw) {
  return t.kind == TokKind::kIdent && t.text == kw;
}

/// Recursive-descent parser over a token stream.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const Schema* schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Peek2() const {
    return tokens_[pos_ + 1 < tokens_.size() ? pos_ + 1 : tokens_.size() - 1];
  }
  Token Take() { return tokens_[pos_++]; }

  Status Expect(TokKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument(
          StrFormat("expected %s at offset %zu", what, Peek().offset));
    }
    ++pos_;
    return Status::OK();
  }

  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  // ---- terms ----

  Result<Term> ParseTerm() {
    const Token& t = Peek();
    if (t.kind == TokKind::kInt) {
      Take();
      return Term::Const(Value::Int(t.int_value));
    }
    if (t.kind == TokKind::kString) {
      Token tok = Take();
      return Term::Const(Value::Str(tok.text));
    }
    if (t.kind == TokKind::kIdent) {
      if (IsKeyword(t, "true") || IsKeyword(t, "false") ||
          IsKeyword(t, "and") || IsKeyword(t, "or") || IsKeyword(t, "not") ||
          IsKeyword(t, "exists") || IsKeyword(t, "forall") ||
          IsKeyword(t, "implies")) {
        return Status::InvalidArgument(
            StrFormat("keyword '%s' used as a term at offset %zu",
                      t.text.c_str(), t.offset));
      }
      Token tok = Take();
      return Term::Var(Variable::Named(tok.text));
    }
    return Status::InvalidArgument(
        StrFormat("expected a term at offset %zu", t.offset));
  }

  Result<std::vector<Term>> ParseTermList() {
    std::vector<Term> terms;
    SI_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    if (Peek().kind == TokKind::kRParen) {
      Take();
      return terms;
    }
    for (;;) {
      SI_ASSIGN_OR_RETURN(Term t, ParseTerm());
      terms.push_back(t);
      if (Peek().kind == TokKind::kComma) {
        Take();
        continue;
      }
      SI_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return terms;
    }
  }

  Status ValidateAtom(const std::string& relation, size_t arity,
                      size_t offset) {
    if (schema_ == nullptr) return Status::OK();
    const RelationSchema* rs = schema_->FindRelation(relation);
    if (rs == nullptr) {
      return Status::NotFound(StrFormat("unknown relation '%s' at offset %zu",
                                        relation.c_str(), offset));
    }
    if (rs->arity() != arity) {
      return Status::InvalidArgument(
          StrFormat("relation '%s' has arity %zu, atom has %zu arguments",
                    relation.c_str(), rs->arity(), arity));
    }
    return Status::OK();
  }

  // ---- FO formulas ----
  // formula    := or_expr ('implies' formula)?      (right associative)
  // or_expr    := and_expr ('or' and_expr)*
  // and_expr   := unary ('and' unary)*
  // unary      := 'not' unary | quantifier | primary
  // quantifier := ('exists'|'forall') var (',' var)* '.' formula
  // primary    := '(' formula ')' | 'true' | 'false' | atom | term (=|!=) term

  Result<Formula> ParseFormulaExpr() {
    SI_ASSIGN_OR_RETURN(Formula lhs, ParseOr());
    if (IsKeyword(Peek(), "implies")) {
      Take();
      SI_ASSIGN_OR_RETURN(Formula rhs, ParseFormulaExpr());
      return Formula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Formula> ParseOr() {
    SI_ASSIGN_OR_RETURN(Formula first, ParseAnd());
    std::vector<Formula> operands = {std::move(first)};
    while (IsKeyword(Peek(), "or")) {
      Take();
      SI_ASSIGN_OR_RETURN(Formula next, ParseAnd());
      operands.push_back(std::move(next));
    }
    return Formula::Or(std::move(operands));
  }

  Result<Formula> ParseAnd() {
    SI_ASSIGN_OR_RETURN(Formula first, ParseUnary());
    std::vector<Formula> operands = {std::move(first)};
    while (IsKeyword(Peek(), "and")) {
      Take();
      SI_ASSIGN_OR_RETURN(Formula next, ParseUnary());
      operands.push_back(std::move(next));
    }
    return Formula::And(std::move(operands));
  }

  Result<Formula> ParseUnary() {
    if (IsKeyword(Peek(), "not")) {
      Take();
      SI_ASSIGN_OR_RETURN(Formula f, ParseUnary());
      return Formula::Not(std::move(f));
    }
    if (IsKeyword(Peek(), "exists") || IsKeyword(Peek(), "forall")) {
      bool is_exists = Peek().text == "exists";
      Take();
      std::vector<Variable> vars;
      for (;;) {
        if (Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument(StrFormat(
              "expected variable after quantifier at offset %zu", Peek().offset));
        }
        vars.push_back(Variable::Named(Take().text));
        if (Peek().kind == TokKind::kComma) {
          Take();
          continue;
        }
        break;
      }
      SI_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' after quantifier variables"));
      SI_ASSIGN_OR_RETURN(Formula body, ParseFormulaExpr());
      return is_exists ? Formula::Exists(std::move(vars), std::move(body))
                       : Formula::Forall(std::move(vars), std::move(body));
    }
    return ParsePrimary();
  }

  Result<Formula> ParsePrimary() {
    if (Peek().kind == TokKind::kLParen) {
      Take();
      SI_ASSIGN_OR_RETURN(Formula f, ParseFormulaExpr());
      SI_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return f;
    }
    if (IsKeyword(Peek(), "true")) {
      Take();
      return Formula::True();
    }
    if (IsKeyword(Peek(), "false")) {
      Take();
      return Formula::False();
    }
    // Relation atom: ident '('.
    if (Peek().kind == TokKind::kIdent && Peek2().kind == TokKind::kLParen) {
      Token name = Take();
      size_t offset = name.offset;
      SI_ASSIGN_OR_RETURN(std::vector<Term> args, ParseTermList());
      SI_RETURN_IF_ERROR(ValidateAtom(name.text, args.size(), offset));
      return Formula::Atom(name.text, std::move(args));
    }
    // Equality / inequality between terms.
    SI_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (Peek().kind == TokKind::kEq) {
      Take();
      SI_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return Formula::Eq(lhs, rhs);
    }
    if (Peek().kind == TokKind::kNeq) {
      Take();
      SI_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return Formula::Not(Formula::Eq(lhs, rhs));
    }
    return Status::InvalidArgument(
        StrFormat("expected '=' or '!=' at offset %zu", Peek().offset));
  }

  // ---- heads and rules ----

  struct Head {
    std::string name;
    std::vector<Term> terms;
  };

  Result<Head> ParseHead() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument(
          StrFormat("expected query name at offset %zu", Peek().offset));
    }
    Head h;
    h.name = Take().text;
    SI_ASSIGN_OR_RETURN(h.terms, ParseTermList());
    return h;
  }

  const Schema* schema() const { return schema_; }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Schema* schema_;
};

/// Union-find over variables with optional constant class representatives:
/// the equality-normalization engine for CQ rule bodies.
class Unifier {
 public:
  Status Union(const Term& a, const Term& b) {
    if (a.is_const() && b.is_const()) {
      if (a.constant() == b.constant()) return Status::OK();
      return Status::InvalidArgument(
          "CQ body equates distinct constants: " + a.ToString() + " = " +
          b.ToString());
    }
    if (a.is_const()) return BindVar(b.var(), a.constant());
    if (b.is_const()) return BindVar(a.var(), b.constant());
    Variable ra = Find(a.var());
    Variable rb = Find(b.var());
    if (ra == rb) return Status::OK();
    // Merge rb into ra; reconcile constants.
    auto ita = constants_.find(ra);
    auto itb = constants_.find(rb);
    if (ita != constants_.end() && itb != constants_.end() &&
        !(ita->second == itb->second)) {
      return Status::InvalidArgument("CQ body equates distinct constants via " +
                                     a.ToString() + " = " + b.ToString());
    }
    if (itb != constants_.end() && ita == constants_.end()) {
      constants_.emplace(ra, itb->second);
    }
    constants_.erase(rb);
    parents_.insert_or_assign(rb, ra);
    return Status::OK();
  }

  Term Resolve(const Term& t) {
    if (t.is_const()) return t;
    Variable r = Find(t.var());
    auto it = constants_.find(r);
    if (it != constants_.end()) return Term::Const(it->second);
    return Term::Var(r);
  }

 private:
  Variable Find(Variable v) {
    auto it = parents_.find(v);
    if (it == parents_.end() || it->second == v) return v;
    Variable root = Find(it->second);
    parents_.insert_or_assign(v, root);
    return root;
  }

  Status BindVar(Variable v, const Value& c) {
    Variable r = Find(v);
    auto it = constants_.find(r);
    if (it != constants_.end()) {
      if (it->second == c) return Status::OK();
      return Status::InvalidArgument("CQ body binds " + v.name() +
                                     " to two distinct constants");
    }
    constants_.emplace(r, c);
    return Status::OK();
  }

  std::map<Variable, Variable> parents_;
  std::map<Variable, Value> constants_;
};

Result<Cq> ParseCqFromParser(Parser* p) {
  SI_ASSIGN_OR_RETURN(Parser::Head head, p->ParseHead());
  SI_RETURN_IF_ERROR(p->Expect(TokKind::kRuleArrow, "':-'"));

  struct PendingAtom {
    std::string relation;
    std::vector<Term> args;
  };
  std::vector<PendingAtom> atoms;
  Unifier unifier;

  // `true` as the sole body is allowed (constant-head queries).
  if (IsKeyword(p->Peek(), "true") && p->Peek2().kind == TokKind::kEnd) {
    p->Take();
  } else {
    for (;;) {
      if (p->Peek().kind == TokKind::kIdent &&
          p->Peek2().kind == TokKind::kLParen) {
        Token name = p->Take();
        size_t offset = name.offset;
        SI_ASSIGN_OR_RETURN(std::vector<Term> args, p->ParseTermList());
        SI_RETURN_IF_ERROR(p->ValidateAtom(name.text, args.size(), offset));
        atoms.push_back({name.text, std::move(args)});
      } else {
        SI_ASSIGN_OR_RETURN(Term lhs, p->ParseTerm());
        SI_RETURN_IF_ERROR(p->Expect(TokKind::kEq, "'=' in body equality"));
        SI_ASSIGN_OR_RETURN(Term rhs, p->ParseTerm());
        SI_RETURN_IF_ERROR(unifier.Union(lhs, rhs));
      }
      if (p->Peek().kind == TokKind::kComma) {
        p->Take();
        continue;
      }
      break;
    }
  }
  if (!p->AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("trailing input at offset %zu", p->Peek().offset));
  }

  // Apply the equality normalization everywhere.
  std::vector<CqAtom> body;
  body.reserve(atoms.size());
  for (PendingAtom& a : atoms) {
    CqAtom atom;
    atom.relation = std::move(a.relation);
    atom.args.reserve(a.args.size());
    for (const Term& t : a.args) atom.args.push_back(unifier.Resolve(t));
    body.push_back(std::move(atom));
  }
  std::vector<Term> head_terms;
  head_terms.reserve(head.terms.size());
  for (const Term& t : head.terms) head_terms.push_back(unifier.Resolve(t));

  // Safety check with a friendly error instead of the constructor abort.
  VarSet body_vars;
  for (const CqAtom& a : body) {
    VarSet av = a.Vars();
    body_vars.insert(av.begin(), av.end());
  }
  for (const Term& t : head_terms) {
    if (t.is_var() && !body_vars.count(t.var())) {
      return Status::InvalidArgument("unsafe CQ: head variable '" +
                                     t.var().name() + "' not bound in body");
    }
  }
  return Cq(head.name, std::move(head_terms), std::move(body));
}

}  // namespace

Result<Cq> ParseCq(std::string_view text, const Schema* schema) {
  Lexer lexer(text);
  SI_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser p(std::move(tokens), schema);
  return ParseCqFromParser(&p);
}

Result<Ucq> ParseUcq(std::string_view text, const Schema* schema) {
  std::vector<Cq> disjuncts;
  std::string name;
  for (std::string_view line : [&] {
         std::vector<std::string_view> lines;
         size_t start = 0;
         for (size_t i = 0; i <= text.size(); ++i) {
           if (i == text.size() || text[i] == '\n') {
             std::string_view l =
                 StripWhitespace(text.substr(start, i - start));
             if (!l.empty()) lines.push_back(l);
             start = i + 1;
           }
         }
         return lines;
       }()) {
    SI_ASSIGN_OR_RETURN(Cq cq, ParseCq(line, schema));
    if (disjuncts.empty()) {
      name = cq.name();
    } else if (cq.name() != name) {
      return Status::InvalidArgument("UCQ rules must share one head name");
    } else if (cq.head().size() != disjuncts[0].head().size()) {
      return Status::InvalidArgument("UCQ rules must share head arity");
    }
    disjuncts.push_back(std::move(cq));
  }
  if (disjuncts.empty()) {
    return Status::InvalidArgument("empty UCQ");
  }
  return Ucq(name, std::move(disjuncts));
}

Result<FoQuery> ParseFoQuery(std::string_view text, const Schema* schema) {
  Lexer lexer(text);
  SI_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser p(std::move(tokens), schema);
  SI_ASSIGN_OR_RETURN(Parser::Head head, p.ParseHead());
  SI_RETURN_IF_ERROR(p.Expect(TokKind::kDefArrow, "':='"));
  SI_ASSIGN_OR_RETURN(Formula body, p.ParseFormulaExpr());
  if (!p.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("trailing input at offset %zu", p.Peek().offset));
  }
  FoQuery q;
  q.name = head.name;
  for (const Term& t : head.terms) {
    if (!t.is_var()) {
      return Status::InvalidArgument("FO query head must list variables only");
    }
    q.head.push_back(t.var());
  }
  q.body = std::move(body);
  if (!q.IsWellFormed()) {
    return Status::InvalidArgument(
        "FO query head must list exactly the free variables of the body "
        "(query: " + q.ToString() + ")");
  }
  return q;
}

Result<Formula> ParseFormula(std::string_view text, const Schema* schema) {
  Lexer lexer(text);
  SI_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser p(std::move(tokens), schema);
  SI_ASSIGN_OR_RETURN(Formula f, p.ParseFormulaExpr());
  if (!p.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("trailing input at offset %zu", p.Peek().offset));
  }
  return f;
}

}  // namespace scalein
