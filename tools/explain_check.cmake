# CLI contract for `fcrlint --explain <rule>`: every registered rule must
# print its summary, rationale, a minimal violating example and the
# sanctioned FCRLINT_ALLOW form; an unknown rule must exit 2 with a
# one-line diagnosis pointing at --list-rules. Run under ctest as
# fcrlint_explain.
#
# Inputs: -DFCRLINT=<path to the fcrlint binary>

function(fail msg)
  message(FATAL_ERROR "fcrlint_explain: ${msg}")
endfunction()

# --- a v4 rule explains fully -------------------------------------------
execute_process(
  COMMAND ${FCRLINT} --explain definite-init
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  fail("--explain definite-init exited ${rc}: ${err}")
endif()
foreach(needle
    "definite-init —"
    "why:"
    "minimal violation:"
    "suppression"
    "FCRLINT_ALLOW(definite-init")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    fail("--explain definite-init output is missing '${needle}':\n${out}")
  endif()
endforeach()

# --- every registered rule has an explanation ---------------------------
execute_process(
  COMMAND ${FCRLINT} --list-rules
  OUTPUT_VARIABLE rules_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  fail("--list-rules exited ${rc}")
endif()
string(REGEX MATCHALL "[a-z][a-z-]+" rule_ids "${rules_out}")
list(REMOVE_DUPLICATES rule_ids)
set(explained 0)
foreach(id ${rule_ids})
  execute_process(
    COMMAND ${FCRLINT} --explain ${id}
    OUTPUT_VARIABLE one
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    continue()  # a summary word, not a rule id — the real ids all resolve
  endif()
  string(FIND "${one}" "minimal violation:" pos)
  if(pos EQUAL -1)
    fail("--explain ${id} has no minimal violating example:\n${one}")
  endif()
  math(EXPR explained "${explained} + 1")
endforeach()
if(explained LESS 16)
  fail("only ${explained} rules explained; expected all 16")
endif()

# --- unknown rules are a diagnosed error, not a crash -------------------
execute_process(
  COMMAND ${FCRLINT} --explain no-such-rule
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  fail("--explain no-such-rule should exit 2, got ${rc}")
endif()
string(FIND "${err}" "unknown rule 'no-such-rule'" pos)
if(pos EQUAL -1)
  fail("unknown-rule diagnosis missing from stderr: ${err}")
endif()
