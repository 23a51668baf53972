# Runs cascade_calibrate twice with the same arguments and fails unless both
# runs print byte-identical threshold tables. Registered as a ctest in
# tools/CMakeLists.txt, which passes -DTOOL=<cascade_calibrate binary> and
# -DOUT=<directory for the two tables>.

set(args --dim 1024 --train 60 --scenes 1 --scene-width 96 --scene-height 72
         --window 16 --stride 8 --faces 1)
file(MAKE_DIRECTORY "${OUT}")
foreach(run a b)
  execute_process(COMMAND "${TOOL}" ${args}
                  OUTPUT_FILE "${OUT}/table_${run}.txt"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "cascade_calibrate run ${run} exited with ${status}")
  endif()
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}/table_a.txt" "${OUT}/table_b.txt"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "cascade_calibrate printed different tables for the "
                      "same arguments: ${OUT}/table_a.txt vs table_b.txt")
endif()
