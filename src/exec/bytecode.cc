#include "exec/bytecode.h"

#include <cctype>
#include <string>

namespace scalein::exec {
namespace {

std::string RegName(Reg r) {
  return r == kNoReg ? std::string("r?") : "r" + std::to_string(r);
}

std::string SlotText(const Slot& s, const CompiledProgram& p) {
  switch (s.kind) {
    case Slot::Kind::kConst:
      return p.consts[s.index].ToString();
    case Slot::Kind::kReg:
      return RegName(s.reg);
    case Slot::Kind::kUnset:
      return "_";
  }
  return "?";
}

std::string PositionsText(const std::vector<size_t>& positions) {
  std::string out = "[";
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(positions[i]);
  }
  return out + "]";
}

std::string RegListText(const std::vector<Reg>& regs) {
  std::string out = "[";
  for (size_t i = 0; i < regs.size(); ++i) {
    if (i > 0) out += ",";
    out += RegName(regs[i]);
  }
  return out + "]";
}

std::string UnifyText(const std::vector<UnifyStep>& steps,
                      const CompiledProgram& p) {
  std::string out = "(";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " ";
    const UnifyStep& s = steps[i];
    out += std::to_string(i) + ":";
    switch (s.kind) {
      case UnifyStep::Kind::kCheckConst:
        out += "ck=" + p.consts[s.index].ToString();
        break;
      case UnifyStep::Kind::kCheckReg:
        out += "ck=" + RegName(s.reg);
        break;
      case UnifyStep::Kind::kBindLocal:
        out += "bind>l" + std::to_string(s.index);
        break;
      case UnifyStep::Kind::kCheckLocal:
        out += "ck=l" + std::to_string(s.index);
        break;
      case UnifyStep::Kind::kSkip:
        out += "skip";
        break;
      case UnifyStep::Kind::kBindReg:
        out += "bind>" + RegName(s.reg);
        break;
    }
  }
  return out + ")";
}

std::string OpRef(int32_t op_idx, const CompiledProgram& p) {
  if (op_idx < 0) return "op=-";
  return "op=" + std::to_string(op_idx) + ":" + p.ops[op_idx].label;
}

std::string LeafText(const PlainNode& node, const CompiledProgram& p) {
  const LeafCode& leaf = node.leaf;
  if (node.rule == ControlRule::kCondition) {
    std::string out = "COND " + OpRef(node.op_idx, p);
    out += " resolve{";
    for (size_t i = 0; i < leaf.cond_sources.size(); ++i) {
      if (i > 0) out += ",";
      out += "l" + std::to_string(i) + "=" + SlotText(leaf.cond_sources[i], p);
    }
    out += "} " + leaf.cond.ToString();
    if (!leaf.ext_regs.empty()) out += " ext>" + RegListText(leaf.ext_regs);
    return out + " CHARGE";  // its rows fold into this node
  }
  std::string out =
      (leaf.full_scan ? "SCAN " : "PROBE ") + p.relations[leaf.relation];
  out += " " + OpRef(node.op_idx, p);
  if (!leaf.full_scan) {
    out += " key" + PositionsText(leaf.key_positions) + "=(";
    for (size_t i = 0; i < leaf.key.size(); ++i) {
      if (i > 0) out += ",";
      out += SlotText(leaf.key[i], p);
    }
    out += ")";
  }
  out += " unify" + UnifyText(leaf.unify, p);
  if (!leaf.ext_regs.empty()) out += " ext>" + RegListText(leaf.ext_regs);
  out += " CHARGE";  // probe + distinct-extension rows fold into this node
  return out;
}

std::string ColumnsText(const std::vector<ChaseColumn>& columns) {
  std::vector<size_t> positions;
  for (const ChaseColumn& c : columns) positions.push_back(c.position);
  return PositionsText(positions);
}

std::string DoubleText(double d) {
  // Bounds are integral in practice; render without trailing zeros.
  if (d == static_cast<double>(static_cast<long long>(d))) {
    return std::to_string(static_cast<long long>(d));
  }
  return std::to_string(d);
}

}  // namespace

std::string CompiledProgram::Disassemble() const {
  std::string out;
  out += (kind == Kind::kPlain ? "plain" : "embedded");
  out += " bytecode: regs=" + std::to_string(num_regs) +
         " consts=" + std::to_string(consts.size()) +
         " ops=" + std::to_string(ops.size()) +
         " static_bound=" + DoubleText(static_bound) + "\n";
  std::string params_line = "  params:";
  for (const auto& [v, r] : param_regs) {
    params_line += " " + v.name() + ">" + RegName(r);
  }
  out += params_line + "\n";

  size_t pc = 0;
  auto line = [&](const std::string& text) {
    std::string num = std::to_string(pc++);
    while (num.size() < 2) num = "0" + num;
    out += "  " + num + "  " + text + "\n";
  };

  if (kind == Kind::kPlain) {
    // Pre-order, children indented under their parent; "!" marks a safe
    // negation that must come back empty.
    auto emit = [&](auto&& self, uint32_t n, size_t depth,
                    bool negated) -> void {
      const PlainNode& node = nodes[n];
      std::string text(depth * 2, ' ');
      if (negated) text += "! ";
      switch (node.rule) {
        case ControlRule::kAtom:
        case ControlRule::kCondition:
          line(text + LeafText(node, *this));
          return;
        case ControlRule::kAnd:
        case ControlRule::kOr:
        case ControlRule::kExists:
        case ControlRule::kForall: {
          std::string name = ControlRuleName(node.rule);
          for (char& c : name) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          }
          line(text + name + " " + OpRef(node.op_idx, *this) + " layout=" +
               RegListText(node.layout) +
               (node.dedup_adjacent ? " dedup-adjacent" : "") + " CHARGE");
          break;
        }
      }
      for (size_t i = 0; i < node.children.size(); ++i) {
        self(self, node.children[i], depth + 1,
             node.rule == ControlRule::kAnd && i >= node.n_positive);
      }
    };
    emit(emit, 0, 0, false);
    line("EMIT head=" + RegListText(head_regs) + " CHARGE output-cap");
    return out;
  }

  for (const AtomCode& atom : atoms) {
    std::string text = "CHASE " + relations[atom.relation] + " " +
                       OpRef(atom.op_idx, *this) + " seed(";
    for (size_t i = 0; i < atom.seed.size(); ++i) {
      if (i > 0) text += ",";
      text += SlotText(atom.seed[i], *this);
    }
    text += ")";
    line(text);
    for (const ChaseStepCode& step : atom.steps) {
      out += "        . STEP key" + PositionsText(step.key_layout) + " check" +
             ColumnsText(step.checks) + " bind" + ColumnsText(step.binds) +
             " CHARGE\n";
    }
    if (atom.needs_verification) {
      out += "        . VERIFY key" + PositionsText(atom.verify_positions) +
             " CHARGE\n";
    }
    out += "        . UNIFY " + UnifyText(atom.unify, *this) + "\n";
  }
  line("EMIT head=" + RegListText(head_regs) + " CHARGE output-cap");
  return out;
}

}  // namespace scalein::exec
