#ifndef SCALEIN_EVAL_ANSWER_SET_H_
#define SCALEIN_EVAL_ANSWER_SET_H_

#include <map>
#include <set>
#include <string>

#include "query/term.h"
#include "relational/tuple.h"

namespace scalein {

/// A query answer: a set of tuples. A Boolean query answers with either the
/// empty set (false) or the singleton set holding the 0-ary tuple (true).
using AnswerSet = std::set<Tuple>;

/// A partial assignment of values to variables: the ā fixed for the
/// parameters x̄ of Q(x̄, ȳ) throughout the paper.
using Binding = std::map<Variable, Value>;

/// The variables `binding` assigns: the parameter set x̄ it fixes.
inline VarSet BoundVariables(const Binding& binding) {
  VarSet vars;
  for (const auto& [v, value] : binding) {
    (void)value;
    vars.insert(v);
  }
  return vars;
}

inline bool BooleanAnswer(const AnswerSet& answers) { return !answers.empty(); }

inline std::string AnswerSetToString(const AnswerSet& answers,
                                     size_t max_rows = 20) {
  std::string out = "{";
  size_t shown = 0;
  for (const Tuple& t : answers) {
    if (shown == max_rows) {
      out += ", ...";
      break;
    }
    if (shown > 0) out += ", ";
    out += TupleToString(t);
    ++shown;
  }
  out += "}";
  return out;
}

}  // namespace scalein

#endif  // SCALEIN_EVAL_ANSWER_SET_H_
