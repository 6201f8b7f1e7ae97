# Determinism of the tape generator (src/sim/tapegen.cc): rerun it into
# a fresh directory and require every file it writes, compiled tapes
# and compiled netlists alike, to equal the build's generated sources
# byte for byte.
#   cmake -DTAPEGEN=<generator> -DREF=<generated dir> -DOUT=<fresh dir>
#         -P tapegen_diff.cmake
file(GLOB shards RELATIVE ${REF} ${REF}/tapes_*.cc)
file(GLOB netlist_shards RELATIVE ${REF} ${REF}/netlists_*.cc)
list(LENGTH shards count)
list(LENGTH netlist_shards netlist_count)
if(count EQUAL 0)
    message(FATAL_ERROR "no generated tapes under ${REF}")
endif()
if(NOT netlist_count EQUAL count)
    message(FATAL_ERROR
            "${REF} has ${count} tape shards but ${netlist_count} netlist shards")
endif()
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(COMMAND ${TAPEGEN} ${OUT} ${count} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tape generator failed (${rc})")
endif()
file(GLOB written RELATIVE ${OUT} ${OUT}/*.cc)
file(GLOB expected RELATIVE ${REF} ${REF}/*.cc)
if(NOT written STREQUAL expected)
    message(FATAL_ERROR "rerun wrote ${written}, the build has ${expected}")
endif()
foreach(f ${expected})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${REF}/${f} ${OUT}/${f} RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "generated ${f} differs between runs")
    endif()
endforeach()
message(STATUS "tape generator reproduced ${expected}")
