"""Decision-tree grading of short-answer exam questions.

Trains one word-presence decision tree per question from expert-graded
answers, grades unseen answers with a label, certainty, and explanation
trace, and evaluates itself with k-fold cross-validation and Pearson
correlation statistics.
"""

from .corpus import (
    AnswerRecord,
    AnswerFileError,
    CorpusError,
    EmptyDatasetError,
    Label,
    LabelConflictError,
    QuestionDataset,
    Sample,
    ValidationReport,
    build_question_dataset,
    parse_answer_file,
    validate_dataset,
)
from .dtree import (
    Classification,
    DecisionTree,
    TrainConfig,
    TreeFormatError,
    build_tree,
    classify,
    deserialize_tree,
    entropy,
    evaluate_split,
    explain,
    select_best_rule,
    serialize_tree,
)
from .evaluation import (
    CorrelationResult,
    EvaluationReport,
    FoldPlan,
    QuestionAccuracy,
    build_report,
    cross_validate,
    make_stratified_folds,
    pearson,
)
from .textprep import (
    DEFAULT_STOPWORDS,
    PreprocessConfig,
    UniqueWordCounts,
    preprocess,
    unique_word_counts,
)

__version__ = "0.1.0"
