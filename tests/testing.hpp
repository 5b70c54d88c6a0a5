// Shared test fixtures: small hand-built programs with known semantics,
// plus helpers to execute a program functionally (no VM, no cost model)
// so transformation passes can be checked for behavioural equivalence.
#pragma once

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "bytecode/program.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"

namespace ith::test {

/// main() { return 2 + 3; } via a helper: main -> add2(2,3).
inline bc::Program make_add_program() {
  bc::ProgramBuilder pb("add", 0);
  pb.method("add2", 2, 2).load(0).load(1).add().ret();
  pb.method("main", 0, 0).const_(2).const_(3).call("add2", 2).halt();
  pb.entry("main");
  return pb.build();
}

/// main() { s = 0; for (i = 0; i < n; ++i) s += square(i); return s; }
inline bc::Program make_loop_program(std::int64_t n = 10) {
  bc::ProgramBuilder pb("loop", 0);
  pb.method("square", 1, 1).load(0).load(0).mul().ret();
  auto& m = pb.method("main", 0, 2);
  m.const_(0).store(0).const_(0).store(1);
  m.label("head");
  m.load(0).const_(n).cmplt().jz("done");
  m.load(0).call("square", 1).load(1).add().store(1);
  m.load(0).const_(1).add().store(0);
  m.jmp("head");
  m.label("done");
  m.load(1).halt();
  pb.entry("main");
  return pb.build();
}

/// main() { return fib(n); } with naive double recursion.
inline bc::Program make_fib_program(std::int64_t n = 10) {
  bc::ProgramBuilder pb("fib", 0);
  auto& f = pb.method("fib", 1, 1);
  f.load(0).const_(2).cmplt().jz("rec");
  f.load(0).ret();
  f.label("rec");
  f.load(0).const_(1).sub().call("fib", 1);
  f.load(0).const_(2).sub().call("fib", 1);
  f.add().ret();
  pb.method("main", 0, 0).const_(n).call("fib", 1).halt();
  pb.entry("main");
  return pb.build();
}

/// main() writes then reads the global array: g[7] = 41; return g[7] + 1.
inline bc::Program make_globals_program() {
  bc::ProgramBuilder pb("globals", 16);
  auto& m = pb.method("main", 0, 0);
  m.const_(7).const_(41).gstore();
  m.const_(7).gload().const_(1).add().halt();
  pb.entry("main");
  return pb.build();
}

/// A "code source" that compiles nothing: every method runs as-is at the
/// given tier, zero compile accounting. For functional execution in tests.
class IdentitySource final : public rt::CodeSource {
 public:
  explicit IdentitySource(const bc::Program& prog, rt::Tier tier = rt::Tier::kOpt)
      : prog_(prog), tier_(tier), compiled_(prog.num_methods()) {}

  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    auto& slot = compiled_[static_cast<std::size_t>(id)];
    if (!slot) {
      slot = std::make_unique<rt::CompiledMethod>();
      slot->body = prog_.method(id);
      slot->tier = tier_;
      slot->method_id = id;
      slot->code_base = 0x1000 + 0x10000 * static_cast<std::uint64_t>(id);
      slot->origin.resize(slot->body.size());
      for (std::size_t pc = 0; pc < slot->body.size(); ++pc) {
        slot->origin[pc] = {id, static_cast<std::int32_t>(pc)};
      }
      slot->finalize();
    }
    return *slot;
  }

 private:
  const bc::Program& prog_;
  rt::Tier tier_;
  std::vector<std::unique_ptr<rt::CompiledMethod>> compiled_;
};

/// Runs `prog` functionally and returns its exit value.
/// Decodes a lowercase hex string (golden byte fixtures).
inline std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// A scratch file path unique to the running test, so gtest-discovered tests
/// running as parallel ctest processes never share a file.
inline std::string per_test_path(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->test_suite_name() + "_" + info->name() + ".bin";
}

inline std::int64_t run_exit_value(const bc::Program& prog) {
  static const rt::MachineModel machine = rt::pentium4_model();
  IdentitySource source(prog);
  rt::Interpreter interp(prog, machine, source, /*icache=*/nullptr);
  return interp.run().exit_value;
}

}  // namespace ith::test
