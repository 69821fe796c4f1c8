"""Decision-tree grading of short-answer exam questions.

Trains one word-presence decision tree per question from expert-graded
answers, grades unseen answers with a label, certainty, and explanation
trace, and evaluates itself with k-fold cross-validation and Pearson
correlation statistics.
"""
