# CTest script: `finser_cli run` is a single-scenario campaign whose artifact
# store lives in <output.dir>/artifacts. It must write exactly
# fit_summary.csv and pof_<species>.csv (no per-scenario subdirectory, no
# eh_pairs file), and a second run into the same output.dir must replay the
# store — zero characterizations, every energy bin a cache hit (witnessed by
# its --metrics-out report) — and write the same CSV bytes.
#
# Inputs: -DFINSER_CLI=<path to binary> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(out "${WORK_DIR}/out")
file(WRITE "${WORK_DIR}/tiny.ini"
  "array.rows = 2\narray.cols = 2\ncell.vdds = 0.8\nmc.pv_samples = 10\n"
  "mc.strikes = 1000\nmc.seed = 7\nspecies = alpha\noutput.dir = ${out}\n")

function(run_cli report)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=FINSER_MC_SCALE
            --unset=FINSER_CI_TARGET --unset=FINSER_CLUSTER
            "${FINSER_CLI}" run "${WORK_DIR}/tiny.ini" --threads 2
            --metrics-out "${WORK_DIR}/${report}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli run failed with exit code ${rc}")
  endif()
endfunction()

# A counter of a run report; an unset counter reads as 0.
function(counter report name var)
  file(READ "${WORK_DIR}/${report}" doc)
  string(JSON value ERROR_VARIABLE missing GET "${doc}" metrics counters
         "${name}")
  if(missing)
    set(value 0)
  endif()
  set(${var} ${value} PARENT_SCOPE)
endfunction()

run_cli(cold.json)
file(GLOB_RECURSE csvs RELATIVE "${out}" "${out}/*.csv")
list(SORT csvs)
if(NOT csvs STREQUAL "fit_summary.csv;pof_alpha.csv")
  message(FATAL_ERROR "run wrote CSVs [${csvs}], expected exactly "
                      "[fit_summary.csv;pof_alpha.csv]")
endif()
foreach(f ${csvs})
  file(READ "${out}/${f}" cold_${f})
endforeach()

run_cli(warm.json)
counter(cold.json core.energy_bins bins)
counter(warm.json pipeline.characterizations chars)
counter(warm.json core.bin_cache_hits hits)
if(bins EQUAL 0 OR NOT chars EQUAL 0 OR NOT hits EQUAL bins)
  message(FATAL_ERROR "warm rerun: ${chars} characterization(s) and ${hits} "
                      "bin cache hit(s); expected 0 and ${bins}")
endif()
foreach(f ${csvs})
  file(READ "${out}/${f}" warm)
  if(NOT warm STREQUAL cold_${f})
    message(FATAL_ERROR "${f} differs between the cold run and its rerun")
  endif()
endforeach()
