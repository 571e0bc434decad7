# Golden paper tables: run BENCH and compare its stdout byte for byte
# with EXPECTED (tests/data/paper-tables/). On a mismatch the output
# is written to ACTUAL for diffing. With DOCTOR set, the comparison
# is against a copy of EXPECTED whose first digit is changed, so a
# test that sets it must fail.
#
#   cmake -DBENCH=bin -DEXPECTED=file -DACTUAL=file [-DDOCTOR=1] \
#         -P paper_table.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE got
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${EXPECTED} want)
if(DOCTOR)
    string(REGEX MATCH "[0-9]" digit "${want}")
    string(FIND "${want}" "${digit}" at)
    math(EXPR changed "(${digit} + 1) % 10")
    math(EXPR after "${at} + 1")
    string(SUBSTRING "${want}" 0 ${at} head)
    string(SUBSTRING "${want}" ${after} -1 tail)
    set(want "${head}${changed}${tail}")
endif()
if(NOT got STREQUAL want)
    file(WRITE ${ACTUAL} "${got}")
    message(FATAL_ERROR "output of ${BENCH} differs from ${EXPECTED}; "
                        "it is in ${ACTUAL}")
endif()
