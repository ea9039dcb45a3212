# Runs the benchmark's city workload at --smoke, three reps each, at seeds
# 2 to 10, and fails unless every run exits 0 with its pinned digest.
# m4x4_benchmark itself exits 1 when a rep fails, an invariant breaks or
# the reps' digests differ; the pins also catch a digest that changed
# consistently.
#
#   cmake -DBENCHMARK=path/to/m4x4_benchmark -P benchmark_city_seeds.cmake
foreach(pin IN ITEMS 2:ce5ef2e855adc1f9 3:394f7d813319855e 4:7dedf4cb8c943155
                    5:30147a5780cf5e5e 6:3d190d4f707a5818 7:569d847d8cf6922a
                    8:fa888bd90517c6c5 9:eb973cb67c6abb5a 10:7f41991a3ccc8a16)
  string(REPLACE ":" ";" pin "${pin}")
  list(GET pin 0 seed)
  list(GET pin 1 digest)
  execute_process(COMMAND ${BENCHMARK} --smoke --workload city --reps 3 --seed ${seed}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "seed ${seed}: m4x4_benchmark exited ${status}\n${out}${err}")
  endif()
  if(NOT out MATCHES "city: correct, digest ${digest},")
    message(FATAL_ERROR "seed ${seed}: expected city digest ${digest}\n${out}")
  endif()
  message(STATUS "seed ${seed}: city digest ${digest}")
endforeach()
